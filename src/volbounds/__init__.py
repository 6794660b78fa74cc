"""Volume bounds for generalized hyperbolic polyhedra and hyperbolic links.

Library layout:

* :mod:`volbounds.lobachevsky` -- the Lobachevsky function, exact combinations
  of v_tet, v_oct, L(p*pi/q) and pi*log(n/2) (antiprism volumes among them),
  and the :class:`Bound` row shared by the polyhedron and link reports.
* :mod:`volbounds.maps` -- dart-based combinatorial maps: validation,
  censuses, medial/dual, family builders, the 3-connectivity test.
* :mod:`volbounds.polyhedra` -- volume bounds for generalized hyperbolic
  polyhedra from their 1-skeletons via rectification.
* :mod:`volbounds.twists` -- twist decompositions, continued fractions, and
  twist-reduced diagrams of two-bridge links.
* :mod:`volbounds.augmented` -- the ideal right-angled polyhedron of a full
  augmentation without half-turns.
* :mod:`volbounds.links` -- link-volume bounds and the aggregated report.
* :mod:`volbounds.cli` -- the ``volbounds`` command-line tool.

The package root imports nothing: import each name from the module that
defines it, e.g. ``from volbounds.links import link_report``.  A command-line
call then loads only the modules its command runs.
"""

__version__ = "0.1.0"
