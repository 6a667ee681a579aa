"""Finite windows of the curve complex of the three-holed projective plane.

The complex is modeled through an auxiliary complex on one-sided curves
whose tetrahedra are glued along triangles in a 4-regular tree; the curve
graph itself is the subdivision of its 1-skeleton.  The package generates
exact finite balls of both, realizes the mapping-class action by unique
propagation on ordered tetrahedra, and verifies structural, rigidity, and
coarse-geometry properties exhaustively at small radius.
"""

from .curve_graph import CurveGraphBall, subdivide
from .errors import BudgetError, CodomainTooSmallError, RadiusCapError
from .metric import (
    DistanceTable,
    all_pairs_distances,
    check_bottleneck_property,
    check_subdivision_isometry,
    hyperbolicity_reports,
    thinness_report,
    tree_comparison,
)
from .rigidity import (
    MappingClassElement,
    OrderedTet,
    compose,
    enumerate_locally_injective,
    image_of_ordered_tet,
    induction_step_report,
    inverse,
    pointwise_stabilizer_check,
    propagate_map,
    rigidity_reports,
)
from .tet_tree import TetBall, generate_ball

__version__ = "0.1.0"
