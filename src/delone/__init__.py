"""Delone-set windows, their triangulations, and simplex-functional densities.

The package builds Delaunay (and deliberately non-Delaunay) triangulations of
finite windows of Delone point sets, evaluates simplex functionals and their
windowed densities, and runs the experiments that probe when the Delaunay
triangulation minimizes a functional's density.
"""

from .delaunay import (
    delaunay_2d,
    delaunay_3d,
    delaunay_of,
    radon_two_triangulations,
    restrict_delaunay,
    verify_empty_circumspheres,
)
from .density import (
    BoundsCertificate,
    DensitySequence,
    center_invariance_gap,
    choose_block_sizes,
    count_certificate,
    density_sequence,
    distorted_cube_report,
    geometric_grid,
    delaunay_minimality_comparison,
    strip_gi_sequence,
    unit_ball_volume,
)
from .errors import (
    DegenerateSimplexError,
    GeometryError,
    InvalidComplexError,
    NonGenericError,
    SamplerError,
    WindowError,
)
from .functionals import (
    ClassReport,
    FunctionalSpec,
    check_flip_inequality,
    check_g_inequality,
    complex_sum,
    eval_batch,
    fe_lifted_volume,
    run_flip_trials,
)
from .generators import (
    PointSetWindow,
    StripConfig,
    compatible_isoceles,
    distorted_cubic_window,
    lattice_window,
    poisson_delone_window,
    strip_block_triangulation,
    verify_delone_params,
)
from .geometry import (
    Circumsphere,
    Side,
    TAU_GEO,
    area_via_circumradius,
    circumradius,
    circumsphere,
    in_sphere,
    lift,
    measure,
    orientation,
)
from .oracle import (
    enumerate_triangulations_2d,
    fe_quadrature,
    min_sum_triangulation,
    noncrossing_triangulations,
    run_g_trials,
)
from .triangulation import (
    FlipRecord,
    TriangulationComplex,
    build_complex,
    build_unbounded_prefix,
    certify_tiling,
    flip,
    is_locally_delaunay,
    legalize_to_delaunay,
    reverse_flip,
    uniform_bound_q,
)

__version__ = "0.1.0"
