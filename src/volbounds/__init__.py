"""Volume bounds for generalized hyperbolic polyhedra and hyperbolic links.

Library layout:

* :mod:`volbounds.lobachevsky` -- the Lobachevsky function, exact combinations
  of v_tet, v_oct, L(p*pi/q) and pi*log(n/2) (antiprism volumes among them),
  and the :class:`Bound` row shared by the polyhedron and link reports.
* :mod:`volbounds.maps` -- dart-based combinatorial maps: validation,
  censuses, medial/dual, family builders, isomorphism.
* :mod:`volbounds.polyhedra` -- volume bounds for generalized hyperbolic
  polyhedra from their 1-skeletons via rectification.
* :mod:`volbounds.twists` -- twist decompositions, continued fractions, and
  twist-reduced diagrams of two-bridge links.
* :mod:`volbounds.augmented` -- the ideal right-angled polyhedron of a full
  augmentation without half-turns.
* :mod:`volbounds.links` -- link-volume bounds and the aggregated report.
* :mod:`volbounds.cli` -- the ``volbounds`` command-line tool.
"""

from .lobachevsky import (
    V_OCT,
    V_TET,
    Bound,
    VolumeExpr,
    antiprism_expr,
    antiprism_volume,
    lobachevsky,
    lobachevsky_quadrature,
    twisted_antiprism_expr,
    twisted_antiprism_volume,
    v_oct,
    v_tet,
)
from .maps import (
    CombinatorialMap,
    MapError,
    SkeletonCensus,
    antiprism,
    bipyramid,
    cube,
    dual,
    is_three_connected,
    medial,
    octahedron,
    prism,
    pyramid,
    tetrahedron,
    two_apex_pyramid,
    twisted_antiprism,
    validate_map,
)
from .polyhedra import rectification_bounds
from .twists import (
    TwistDecomposition,
    TwistReducedDiagram,
    TwistStats,
    continued_fraction,
    twist_stats,
    two_bridge_diagram,
)
from .augmented import AugmentedPolyhedron, augment
from .links import HypothesisFlags, link_report

__version__ = "0.1.0"
