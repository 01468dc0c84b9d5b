"""What one process keeps of work it has already done, so that a later CLI
stage need not redo it (``delone batch`` runs every stage in one process).

Each kind of record holds one entry, a key and a value, and a lookup hits
only on an equal key: the exact text of a file, or the shape and bytes of
an array.  A miss costs one equality compare.  The kinds in use:

- ``"window"``: the last point-file text ``PointSetWindow.save`` wrote;
- ``"complex"``: the last complex text ``TriangulationComplex.to_json`` wrote;
- ``"build"``: the last complex ``delaunay_of`` built, by its points;
- ``"geometry"``: the circumcentres and radii of the last validated complex.
"""

_entries: dict = {}


def keep(kind, key, value):
    """Make ``(key, value)`` the one entry of ``kind``."""
    _entries[kind] = key, value


def get(kind, key):
    """The value kept for ``kind`` under a key equal to ``key``, else None."""
    entry = _entries.get(kind)
    return entry[1] if entry is not None and entry[0] == key else None


def drop(kind):
    """Forget the entry of ``kind``."""
    _entries.pop(kind, None)


def clear():
    """Forget every entry, as a fresh process starts."""
    _entries.clear()
