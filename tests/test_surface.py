"""Every public function and public method of ``delone`` is named somewhere
outside its own definition: elsewhere in the library, in the benchmark
harness (``perfbench``) or in the acceptance criteria.  A name that only
other tests read is kept only as a reference those tests compare against,
and ``KEPT`` gives its reason.  The check is a static scan of the source
(``ast`` name and attribute reads); nothing is imported or run, and the
re-exports of ``delone/__init__.py`` are not counted as uses."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delone"
READERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# module.qualname -> why it stays although no scanned file names it
KEPT = {
    "density.built_strip_counts": "cross-check of the analytic strip counts on a built complex",
    "generators.displaced_lattice_point": "per-point reference for the distorted cubic window "
                                          "and the distorted cube report",
    "geometry.circumradius": "scalar reference for circumradii and the strip bound q",
    "geometry.in_sphere": "scalar reference for in_spheres and the emptiness checks",
    "geometry.lift": "per-point reference for the 3D builder's batched lift",
    "memo.clear": "lets a test start from the state of a fresh process",
    "oracle.noncrossing_triangulations": "independent oracle for the flip-graph enumeration",
    "triangulation.flip": "the paper's directed T -> D flip, whose radius bound tests check",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names(tree) -> Counter:
    """How often each name is read or bound as a variable or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def public_definitions(tree):
    """(qualified name, node) of the module's public functions and the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def subcommands(cli_tree) -> set:
    """The names given to ``add_parser``: ``main`` calls ``cmd_<name>``
    through ``globals()``, so no scan sees those calls."""
    return {node.args[0].value for node in ast.walk(cli_tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"}


def unnamed_definitions() -> list:
    """Public definitions of the library that no scanned file names outside
    the definition itself, but for the CLI's subcommand handlers."""
    modules = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    seen = sum((names(tree) for tree in modules.values()), Counter())
    seen += sum((names(parse(path)) for path in READERS), Counter())
    commands = subcommands(modules["cli"])
    out = []
    for module, tree in modules.items():
        for qualname, node in public_definitions(tree):
            name = node.name
            if module == "cli" and name.startswith("cmd_") and name[4:] in commands:
                continue
            if seen[name] - names(node)[name] <= 0:
                out.append(f"{module}.{qualname}")
    return out


def test_every_public_definition_is_named_outside_the_tests():
    unnamed = unnamed_definitions()
    unexplained = sorted(set(unnamed) - set(KEPT))
    assert not unexplained, (
        f"{unexplained}: no library module, perfbench or acceptance criterion names these; "
        "delete them, or list them in KEPT with the reason a test needs them")
    stale = sorted(set(KEPT) - set(unnamed))
    assert not stale, f"{stale} are gone or have callers now; drop them from KEPT"
