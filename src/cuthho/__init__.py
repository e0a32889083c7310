"""Unfitted hybrid high-order solver for elliptic interface problems.

Mixed-order HHO (cell degree k+1, face degree k) on a Cartesian mesh cut
by a level-set interface; small cut cells are stabilized by extending the
polynomials of a paired neighbor instead of agglomerating cells.
"""

from .assembly import (
    DofLayout,
    System,
    assemble,
    condense,
    condition_number,
    energy_error,
    interpolate_polynomial,
    pairing_groups,
    solve,
    solve_full,
)
from .cases import Case, available_cases, make_case, polynomial_case, verify_case
from .errors import (
    ConfigError,
    CutHHOError,
    GeometryError,
    NumericalError,
    PairingError,
)
from .geometry import (
    CellCuts,
    CutMesh,
    FaceCuts,
    PairingMap,
    build_cut_mesh,
    build_pairing,
    build_polyline,
    triangulate_polygon,
)
from .levelset import Circle, Flower, LevelSet, Line, Square
from .local import LocalOperators
from .mesh import CartesianMesh, build_mesh
from .study import (
    RunRecord,
    conditioning_study,
    convergence_study,
    solve_single,
    theta_study,
    write_csv,
)

__version__ = "0.1.0"
