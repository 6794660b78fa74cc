"""The four benchmark workloads: seeded inputs, the timed operation, and its checks.

An operation is one complete bound report for one input, or the named
rejection of an input that must be refused.  Every workload offers:

* ``generate()`` -- the seeded list of inputs that makes up one pass;
* ``warm_up()`` -- a few untimed operations run during set-up;
* ``execute(item)`` -- the timed operation, calling the library through its
  module attributes so that tracing wrappers and test patches take effect;
* ``outcome(item, result)`` -- ``"report"`` or the rejection name, plus the
  digest lines of the result (one per report row);
* ``check(item, outcome, result)`` -- a list of problems, empty when the
  result is correct.  Expectations are known by construction of the input
  or come from oracles that do not share the code path under test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field

# Regular ideal tetrahedron and octahedron volumes, to 20 digits; used to
# check report rows independently of the library's own constants.
V_TET = 1.0149416064096536250
V_OCT = 3.6638623767088760602

REL_TOL = 1e-9


def classify(vb, exc: BaseException) -> str:
    """Name a rejection; anything unexpected gets an ``error:`` name."""
    if isinstance(exc, vb.maps.MapError):
        return "map:" + exc.violation
    if isinstance(exc, ValueError):
        if "3-connected" in str(exc):
            return "not-3-connected"
        if "single twist" in str(exc):
            return "single-twist"
    return f"error:{type(exc).__name__}: {exc}"


def row_lines(rows) -> list[str]:
    """Digest lines of a report: name, kind, applicable, best, value to 1e-9."""
    return [
        f"{r.name}|{r.kind}|{int(r.applicable)}|{int(r.best)}|"
        + ("None" if r.value is None else f"{r.value:.9f}")
        for r in rows
    ]


def spread_order(strata: list[list], rng: random.Random) -> list:
    """Interleave strata so that every prefix of the pass has the same mix.

    A timed window usually ends inside a pass; spreading each stratum evenly
    keeps the partial pass representative, which keeps the run steady.
    """
    keyed = []
    for stratum in strata:
        items = list(stratum)
        rng.shuffle(items)
        for i, item in enumerate(items):
            keyed.append(((i + rng.random()) / len(items), len(keyed), item))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# poly-skeletons
# ---------------------------------------------------------------------------

FAMILY_MIN_N = {
    "pyramid": 3,
    "bipyramid": 3,
    "prism": 3,
    "antiprism": 3,
    "two_apex_pyramid": 4,
    "twisted_antiprism": 4,
}
PLATONIC = ("tetrahedron", "cube", "octahedron")


def family_vef(family: str, n: int | None) -> tuple[int, int, int]:
    """V, E, F of a family member, from the closed formulas."""
    fixed = {"tetrahedron": (4, 6, 4), "cube": (8, 12, 6), "octahedron": (6, 12, 8)}
    if family in fixed:
        return fixed[family]
    return {
        "pyramid": (n + 1, 2 * n, n + 1),
        "bipyramid": (n + 2, 3 * n, 2 * n),
        "prism": (2 * n, 3 * n, n + 2),
        "antiprism": (2 * n, 4 * n, 2 * n + 2),
        "two_apex_pyramid": (n + 2, 2 * n + 1, n + 1),
        "twisted_antiprism": (2 * n + 1, 4 * n + 2, 2 * n + 3),
    }[family]


# The size ladder, weighted toward small n as in a census, is the same for
# every seed (the seed draws the rejected inputs and the order), so that
# every seed spends the same time in the cubic 3-connectivity test.  Small
# and mid rungs are taken by every family and its dual; the block holds one skeleton with
# about 60 vertices per family and orientation (45-55 ms each at the seed
# commit); with the seven larger ones above it, the 90th percentile of a
# pass falls inside the block rather than on a jump between sizes.
MID_N = (9, 12, 16)
BLOCK_TIER = (
    ("prism", 30, False),
    ("prism", 45, True),
    ("antiprism", 30, False),
    ("antiprism", 30, True),
    ("twisted_antiprism", 30, False),
    ("twisted_antiprism", 30, True),
    ("bipyramid", 45, False),
    ("bipyramid", 30, True),
    ("pyramid", 60, False),
    ("pyramid", 60, True),
    ("two_apex_pyramid", 60, False),
    ("two_apex_pyramid", 60, True),
)
LARGE_TIER = (
    ("prism", 40, False),
    ("prism", 60, False),
    ("antiprism", 40, False),
    ("antiprism", 40, True),
    ("bipyramid", 40, True),
    ("twisted_antiprism", 40, False),
    ("twisted_antiprism", 40, True),
)


# Face cycles of three families, written out here (not taken from the
# library) so that the rejected skeletons are built from independent data.
def prism_faces(n: int) -> list[list[int]]:
    sides = [[i, (i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return [list(range(n)), [n + i for i in range(n)]] + sides


def pyramid_faces(n: int) -> list[list[int]]:
    return [list(range(n))] + [[i, (i + 1) % n, n] for i in range(n)]


def antiprism_faces(n: int) -> list[list[int]]:
    ups = [[i, (i + 1) % n, n + i] for i in range(n)]
    downs = [[(i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return [list(range(n)), [n + i for i in range(n)]] + ups + downs


FACE_BUILDERS = {"prism": prism_faces, "pyramid": pyramid_faces, "antiprism": antiprism_faces}


def merge_faces(a: list[int], b: list[int]) -> list[int]:
    """Union of two faces that share exactly one edge and no other vertex."""
    edges_a = {frozenset((a[i], a[(i + 1) % len(a)])) for i in range(len(a))}
    edges_b = {frozenset((b[i], b[(i + 1) % len(b)])) for i in range(len(b))}
    shared = edges_a & edges_b
    if len(shared) != 1 or len(set(a) & set(b)) != 2:
        raise ValueError("faces must share exactly one edge")
    u, w = tuple(next(iter(shared)))

    def path(cycle: list[int], start: int, end: int) -> list[int]:
        # walk from start to end without using the edge start-end
        k = cycle.index(start)
        if cycle[(k + 1) % len(cycle)] == end:
            cycle = cycle[::-1]
            k = cycle.index(start)
        return cycle[k:] + cycle[:k]

    first = path(a, w, u)  # w ... u
    second = path(b, u, w)  # u ... w
    return first + second[1:-1]


def merged_skeleton(rng: random.Random) -> tuple[str, list[list[int]]]:
    """Merge two faces across an edge with a degree-3 end: degree 2 results."""
    family = rng.choice(("prism", "pyramid"))
    n = rng.randint(3, 12)
    faces = FACE_BUILDERS[family](n)
    i = rng.randrange(n)
    first = 2 if family == "prism" else 1  # index of side face 0
    if rng.random() < 0.5:
        pair = (0, first + i)  # the base n-gon and a side face
    else:
        pair = (first + i, first + (i + 1) % n)  # two neighbouring side faces
    merged = merge_faces(faces[pair[0]], faces[pair[1]])
    rest = [f for k, f in enumerate(faces) if k not in pair]
    return f"merged-{family}({n})", rest + [merged]


def glued_skeleton(rng: random.Random) -> tuple[str, list[list[int]]]:
    """Two polyhedra glued along an edge: min degree 3 but a 2-vertex cut."""
    parts = []
    for _ in range(2):
        family = rng.choice(tuple(FACE_BUILDERS))
        n = rng.randint(3, 8)
        parts.append((family, n, FACE_BUILDERS[family](n)))
    (fam1, n1, faces1), (fam2, n2, faces2) = parts
    f1 = rng.randrange(len(faces1))
    k1 = rng.randrange(len(faces1[f1]))
    u1, w1 = faces1[f1][k1], faces1[f1][(k1 + 1) % len(faces1[f1])]
    f2 = rng.randrange(len(faces2))
    k2 = rng.randrange(len(faces2[f2]))
    u2, w2 = faces2[f2][k2], faces2[f2][(k2 + 1) % len(faces2[f2])]
    offset = 1 + max(v for face in faces1 for v in face)
    relabel = {u2: u1, w2: w1}
    fresh = iter(range(offset, offset + 10_000))
    for face in faces2:
        for v in face:
            if v not in relabel:
                relabel[v] = next(fresh)
    faces2 = [[relabel[v] for v in face] for face in faces2]
    merged = merge_faces(faces1[f1], faces2[f2])
    faces = [f for k, f in enumerate(faces1) if k != f1]
    faces += [f for k, f in enumerate(faces2) if k != f2]
    return f"glued-{fam1}({n1})+{fam2}({n2})", faces + [merged]


def _rotations(sigma: list[int]) -> list[list[int]]:
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if not seen[start]:
            cycle = []
            d = start
            while not seen[d]:
                seen[d] = True
                cycle.append(d)
                d = sigma[d]
            cycles.append(cycle)
    return cycles


def malformed_dicts(vb, rng: random.Random) -> list[tuple[str, dict, str]]:
    """One map dict per violation, each breaking exactly one invariant."""

    def base() -> dict:
        return vb.maps.map_to_dict(vb.maps.prism(rng.randint(3, 8)))

    out = []
    d = base()
    del d[rng.choice(("alpha", "sigma"))]
    out.append(("format", d, "map:format"))

    d = base()
    d["darts"] += 2
    out.append(("length-mismatch", d, "map:length-mismatch"))

    d = base()
    j, k = rng.sample(range(d["darts"]), 2)
    d["alpha"][j] = d["alpha"][k]
    out.append(("not-a-permutation", d, "map:not-a-permutation"))

    d = base()
    a = rng.randrange(d["darts"])
    b = d["alpha"][a]
    d["alpha"][a], d["alpha"][b] = a, b
    out.append(("fixed-dart", d, "map:fixed-dart"))

    d = base()
    a = rng.randrange(d["darts"])
    b = d["alpha"][a]
    c = rng.choice([x for x in range(d["darts"]) if x not in (a, b)])
    e = d["alpha"][c]
    for x, y in ((a, c), (c, b), (b, e), (e, a)):  # one 4-cycle
        d["alpha"][x] = y
    out.append(("not-involution", d, "map:not-involution"))

    d1, d2 = base(), base()
    n1 = d1["darts"]
    d = {
        "darts": n1 + d2["darts"],
        "alpha": d1["alpha"] + [x + n1 for x in d2["alpha"]],
        "sigma": d1["sigma"] + [x + n1 for x in d2["sigma"]],
    }
    out.append(("disconnected", d, "map:disconnected"))

    # Reversing the rotation at one vertex of a 3-connected planar map gives
    # a second, non-planar embedding (Whitney), so V - E + F != 2.
    d = base()
    x, y, z = rng.choice(_rotations(d["sigma"]))
    d["sigma"][x], d["sigma"][z], d["sigma"][y] = z, y, x
    out.append(("genus", d, "map:genus"))
    return out


@dataclass(frozen=True)
class PolyInput:
    label: str
    kind: str  # "family" | "faces" | "dict"
    expect: frozenset
    family: str | None = None
    n: int | None = None
    dual: bool = False
    faces: tuple = ()
    data: dict = field(default=None, hash=False, compare=False)


class PolySkeletons:
    """Bound reports for polyhedron skeletons: build, validate, rectify."""

    name = "poly-skeletons"
    trace_passes = 1

    def __init__(self, vb, seed: int, root: str):
        self.vb = vb
        self.seed = seed

    def _family(self, family, n, dual):
        label = f"{'dual-' if dual else ''}{family}" + ("" if n is None else f"({n})")
        return PolyInput(label, "family", frozenset({"report"}), family, n, dual)

    def generate(self) -> list[PolyInput]:
        rng = random.Random(f"poly-skeletons/{self.seed}")
        platonic = [self._family(f, None, dual) for f in PLATONIC for dual in (False, True)]
        small, mid = [], []
        for family, low in FAMILY_MIN_N.items():
            for dual in (False, True):
                small += [self._family(family, n, dual) for n in range(low, 8)]
                mid += [self._family(family, n, dual) for n in MID_N]
        block = [self._family(f, n, dual) for f, n, dual in BLOCK_TIER]
        large = [self._family(f, n, dual) for f, n, dual in LARGE_TIER]
        rejected = []
        for _ in range(8):
            label, faces = merged_skeleton(rng)
            rejected.append(
                PolyInput(label, "faces", frozenset({"not-3-connected", "map:degree"}),
                          faces=tuple(map(tuple, faces)))
            )
        for _ in range(6):
            label, faces = glued_skeleton(rng)
            rejected.append(
                PolyInput(label, "faces", frozenset({"not-3-connected"}),
                          faces=tuple(map(tuple, faces)))
            )
        for label, data, expect in malformed_dicts(self.vb, rng):
            rejected.append(PolyInput("malformed-" + label, "dict", frozenset({expect}), data=data))
        return spread_order([platonic, small, mid, block, large, rejected], rng)

    def warm_up(self, items) -> None:
        for item in items:
            if item.kind != "family" or item.n is None or item.n <= 6:
                self.run(item)

    def run(self, item):
        try:
            return self.execute(item)
        except Exception as exc:  # a rejection is a result too
            return exc

    def execute(self, item: PolyInput):
        maps = self.vb.maps
        if item.kind == "family":
            m = getattr(maps, item.family)() if item.n is None else getattr(maps, item.family)(item.n)
            if item.dual:
                m = maps.dual(m)
        elif item.kind == "faces":
            m = maps.map_from_face_cycles([list(f) for f in item.faces])
        else:
            m = maps.map_from_dict(item.data)
        census = maps.validate_map(m)
        return census, self.vb.polyhedra.rectification_bounds(m)

    def outcome(self, item, result) -> tuple[str, list[str]]:
        if isinstance(result, Exception):
            name = classify(self.vb, result)
            return name, [name]
        return "report", row_lines(result[1])

    def check(self, item: PolyInput, outcome: str, result) -> list[str]:
        if outcome not in item.expect:
            return [f"{item.label}: outcome {outcome!r}, expected one of {sorted(item.expect)}"]
        if outcome != "report":
            return []
        census, rows = result
        problems = []
        v, e, f = family_vef(item.family, item.n)
        if item.dual:
            v, f = f, v
        if (census.V, census.E, census.F) != (v, e, f):
            problems.append(f"{item.label}: V,E,F = {census.V},{census.E},{census.F}, expected {v},{e},{f}")
        exact = None
        if item.family == "pyramid" and not item.dual:
            exact = self.vb.lobachevsky.antiprism_volume(item.n)
        elif item.family == "two_apex_pyramid" and not item.dual:
            exact = self.vb.lobachevsky.twisted_antiprism_volume(item.n)
        if exact is not None:
            lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
            upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
            # sharp bounds (the tetrahedron, two_apex_pyramid(4)) meet the
            # exact volume up to rounding
            slack = REL_TOL * max(1.0, exact)
            if not (lower <= exact + slack and exact <= upper + slack):
                problems.append(f"{item.label}: exact volume {exact} outside [{lower}, {upper}]")
        return problems


# ---------------------------------------------------------------------------
# Two-bridge links (link-small, link-large)
# ---------------------------------------------------------------------------


def fraction_of(digits: list[int]) -> tuple[int, int]:
    """p/q = [a1; a2, ..., an] as a reduced fraction."""
    p, q = digits[-1], 1
    for a in reversed(digits[:-1]):
        p, q = a * p + q, p
    return p, q


def mirror_digits(digits: list[int]) -> list[int]:
    """Continued fraction of p/(p-q) from that of p/q."""
    if digits[0] == 1:
        return [digits[1] + 1] + digits[2:]
    return [1, digits[0] - 1] + digits[1:]


@dataclass(frozen=True)
class TwoBridgeInput:
    label: str
    p: int
    q: int
    # continued fractions of p/q and of its mirror normalised to q < p/2;
    # either one is a correct twist-reduced diagram of b(p/q)
    digit_forms: tuple


@dataclass(frozen=True)
class TwistsInput:
    label: str
    lengths: tuple
    flags: tuple
    jones: tuple | None


FLAG_NAMES = ("reduced", "alternating", "two_bridge", "not_figure_eight", "not_borromean")


def two_bridge_input(rng: random.Random, t: int) -> TwoBridgeInput:
    """Random digits 1..6 (last >= 2) as in scripts/two_bridge_scan.py; half
    the fractions are replaced by their mirror, so q falls on both sides of p/2."""
    digits = [rng.randint(1, 6) for _ in range(t)]
    if digits[-1] < 2:
        digits[-1] = 2
    if rng.random() < 0.5:
        digits = mirror_digits(digits)
    p, q = fraction_of(digits)
    normal = digits if 2 * q < p else mirror_digits(digits)
    forms = (tuple(digits),) if normal == digits else (tuple(digits), tuple(normal))
    label = f"b({p}/{q})" if t <= 16 else f"b(t={len(digits)})"
    return TwoBridgeInput(label, p, q, forms)


class TwoBridgeWorkload:
    """Shared operation and checks of the two link workloads."""

    def __init__(self, vb, seed: int, root: str):
        self.vb = vb
        self.seed = seed

    def run(self, item):
        try:
            return self.execute(item)
        except Exception as exc:
            return exc

    def execute(self, item):
        vb = self.vb
        if isinstance(item, TwistsInput):
            flags = vb.links.HypothesisFlags(**dict(zip(FLAG_NAMES, item.flags)))
            d = vb.twists.TwistDecomposition(item.lengths)
            return vb.links.link_report(d, flags, jones_coefficients=item.jones)
        diagram = vb.twists.two_bridge_diagram(item.p, item.q)
        poly = vb.augmented.augment(diagram)
        # the flags `volbounds link two-bridge` asserts for a Conway normal form
        flags = vb.links.HypothesisFlags(
            reduced=True,
            alternating=True,
            two_bridge=True,
            not_figure_eight=item.p != 5,
            not_borromean=True,
        )
        rows = vb.links.link_report(diagram.decomposition(), flags, white_census=poly.white_census)
        return diagram, poly, rows

    def outcome(self, item, result) -> tuple[str, list[str]]:
        if isinstance(result, Exception):
            name = classify(self.vb, result)
            return name, [name]
        rows = result if isinstance(item, TwistsInput) else result[2]
        return "report", row_lines(rows)

    def _check_rows(self, label, rows, t, extra_rows) -> list[str]:
        if len(rows) != 11 + extra_rows:
            return [f"{label}: {len(rows)} report rows, expected {11 + extra_rows}"]
        agol = next((r for r in rows if r.name == "agol-thurston"), None)
        if agol is None or not agol.applicable or not close(agol.value, 10 * V_TET * (t - 1)):
            return [f"{label}: agol-thurston row is not 10 v_tet (t - 1)"]
        return []

    def check(self, item, outcome: str, result) -> list[str]:
        if isinstance(item, TwistsInput):
            if outcome != "report":
                return [f"{item.label}: outcome {outcome!r}, expected a report"]
            return self._check_rows(item.label, result, len(item.lengths), 2 if item.jones else 0)
        lengths = {len(form) for form in item.digit_forms}
        allowed = ({"report"} if max(lengths) >= 2 else set()) | (
            {"single-twist"} if min(lengths) == 1 else set()
        )
        if outcome not in allowed:
            return [f"{item.label}: outcome {outcome!r}, expected one of {sorted(allowed)}"]
        if outcome != "report":
            return []
        diagram, poly, rows = result
        forms = {form for form in item.digit_forms if len(form) >= 2}
        if tuple(diagram.lengths) not in forms:
            return [f"{item.label}: twist lengths {diagram.lengths}, expected one of {sorted(forms)}"]
        t = diagram.t
        census = self.vb.maps.validate_map(poly.map)
        problems = []
        if (census.V, census.E, census.F) != (3 * t, 6 * t, 3 * t + 2):
            problems.append(f"{item.label}: augmented V,E,F = {census.V},{census.E},{census.F}")
        oracle = self.vb.augmented.white_census_by_corner_count(diagram)
        if poly.white_census != oracle:
            problems.append(f"{item.label}: white census {poly.white_census} != oracle {oracle}")
        return problems + self._check_rows(item.label, rows, t, 0)


class LinkSmall(TwoBridgeWorkload):
    """Two-bridge reports at knot-table sizes plus raw twist decompositions."""

    name = "link-small"
    trace_passes = 1

    def generate(self) -> list:
        rng = random.Random(f"link-small/{self.seed}")
        strata = []
        for t in range(2, 17):
            strata.append([two_bridge_input(rng, t) for _ in range(40)])
        raw = []
        for _ in range(150):
            t = rng.randint(1, 16)
            lengths = tuple(rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(t))
            flags = tuple(rng.random() < 0.5 for _ in FLAG_NAMES)
            jones = (rng.randint(0, 6), rng.randint(0, 6)) if rng.random() < 0.25 else None
            raw.append(TwistsInput(f"twists{list(lengths)}", lengths, flags, jones))
        strata.append(raw)
        return spread_order(strata, rng)

    def warm_up(self, items) -> None:
        for item in items[:50]:
            self.run(item)


# t ladder of the ROADMAP north star, twenty fractions per rung, so that the
# median and the 90th percentile fall inside a rung, not between two
LARGE_T = (100, 300, 500, 700, 1000)


class LinkLarge(TwoBridgeWorkload):
    """Two-bridge reports at t = 100..1000, where augmentation dominates."""

    name = "link-large"
    trace_passes = 1

    def generate(self) -> list:
        rng = random.Random(f"link-large/{self.seed}")
        strata = [[two_bridge_input(rng, t) for _ in range(20)] for t in LARGE_T]
        return spread_order(strata, rng)

    def warm_up(self, items) -> None:
        for item in items:
            if len(item.digit_forms[0]) <= 101:
                self.run(item)


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

_VEF = re.compile(r"\bV=(\d+) E=(\d+) F=(\d+)")


@dataclass(frozen=True)
class CliInput:
    label: str
    argv: tuple
    params: tuple = ()


def readme_block(rng: random.Random) -> list[CliInput]:
    """The README's CLI command block with seeded arguments."""
    theta = rng.uniform(0.05, math.pi - 0.05)
    n_prism = rng.randint(5, 12)
    n_pyr = rng.randint(4, 8)
    digits = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
    digits[0] = max(digits[0], 2)
    digits[-1] = max(digits[-1], 2)
    p, q = fraction_of(digits)
    jones = f"{rng.randint(0, 4)},{rng.randint(1, 4)}"
    lengths = [rng.randint(1, 6) for _ in range(rng.randint(3, 6))]
    pyr = f"pyr{n_pyr}.json"
    block = [
        ("lob", ["lob", "--theta", repr(theta)], (theta,)),
        ("constants", ["constants"], ()),
        ("poly-family-bounds", ["poly", "family", "--name", "prism", "--n", str(n_prism), "--bounds"],
         (n_prism,)),
        ("poly-family-out", ["poly", "family", "--name", "pyramid", "--n", str(n_pyr), "--out", pyr],
         (n_pyr,)),
        ("poly-graph", ["poly", "graph", "--file", pyr], (n_pyr,)),
        ("poly-medial", ["poly", "medial", "--file", pyr, "--out", "medial.json"], (n_pyr,)),
        ("poly-dual", ["poly", "dual", "--file", pyr], (n_pyr,)),
        ("link-two-bridge", ["link", "two-bridge", "--fraction", f"{p}/{q}", "--jones", jones],
         (tuple(digits),)),
        ("link-twists", ["link", "twists", "--lengths", ",".join(map(str, lengths)), "--reduced",
                         "--alternating", "--not-borromean"], (tuple(lengths),)),
        ("link-augment", ["link", "augment", "--fraction", f"{p}/{q}", "--out", "p.json"],
         (len(digits),)),
    ]
    return [CliInput(label, tuple(argv), params) for label, argv, params in block]


class CliReadme:
    """The README's commands as fresh `python -m volbounds.cli` processes."""

    name = "cli-readme"
    trace_passes = 20

    def __init__(self, vb, seed: int, root: str):
        self.vb = vb
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.workdir = None  # set by the runner: a scratch directory in the checkout
        self.in_process = False  # the traced run calls cli.run in this process
        self.expected = None
        self.peak_child_rss_kb = 0

    def generate(self) -> list[CliInput]:
        return readme_block(random.Random(f"cli-readme/{self.seed}"))

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def warm_up(self, items) -> None:
        subprocess.run(
            [sys.executable, "-m", "volbounds.cli", "constants"],
            env=self.env(), stdout=subprocess.DEVNULL, check=True,
        )

    def run(self, item):
        return self.execute(item)

    def execute(self, item: CliInput):
        if self.in_process:
            return self._run_in_process(item, self.workdir)
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "volbounds.cli", *item.argv],
                cwd=self.workdir, env=self.env(), stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        with open(out_path) as fh:
            return proc.returncode, fh.read()

    def _run_in_process(self, item: CliInput, workdir: str):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = importlib.import_module("volbounds.cli").run(list(item.argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def outcome(self, item, result) -> tuple[str, list[str]]:
        code, stdout = result
        return ("report" if code == 0 else f"exit:{code}"), stdout.splitlines()

    def expected_outputs(self, items) -> dict:
        """Stdout of every command run in process, in its own directory."""
        if self.expected is None:
            workdir = os.path.join(self.workdir, "expected")
            os.makedirs(workdir, exist_ok=True)
            self.expected = {item: self._run_in_process(item, workdir) for item in items}
        return self.expected

    def check(self, item: CliInput, outcome: str, result) -> list[str]:
        code, stdout = result
        if outcome != "report":
            return [f"{item.label}: exit code {code}"]
        problems = []
        if (code, stdout) != self.expected[item]:
            problems.append(f"{item.label}: output differs from the in-process run")
        problems += [f"{item.label}: {p}" for p in self._spot_check(item, stdout)]
        return problems

    def _spot_check(self, item: CliInput, stdout: str) -> list[str]:
        """Independent checks of one value per command."""
        vef = _VEF.search(stdout)
        vef = tuple(map(int, vef.groups())) if vef else None
        label = item.label
        if label == "lob":
            oracle = self.vb.lobachevsky.lobachevsky_quadrature(item.params[0])
            if abs(float(stdout) - oracle) > 6e-7:
                return [f"L(theta) printed {stdout.strip()}, quadrature gives {oracle}"]
        elif label == "constants":
            if f"v_tet: {V_TET:.6f}" not in stdout or f"v_oct: {V_OCT:.6f}" not in stdout:
                return ["constants differ from v_tet, v_oct"]
        elif label == "poly-family-bounds":
            (n,) = item.params
            if vef != family_vef("prism", n):
                return [f"census {vef}"]
        elif label == "poly-family-out":
            (n,) = item.params
            path = os.path.join(self.workdir, f"pyr{n}.json")
            if vef != family_vef("pyramid", n) or not os.path.exists(path):
                return [f"census {vef} or missing map file"]
        elif label == "poly-graph":
            if "bounds:" not in stdout:
                return ["no bounds table"]
        elif label == "poly-medial":
            (n,) = item.params
            if vef != (2 * n, 4 * n, 2 * n + 2):
                return [f"medial census {vef}"]
        elif label == "poly-dual":
            (n,) = item.params
            if vef != family_vef("pyramid", n):
                return [f"dual census {vef}"]
        elif label == "link-two-bridge":
            (digits,) = item.params
            if f"lengths={list(digits)} t={len(digits)}" not in stdout:
                return ["twist lengths differ from the continued fraction"]
        elif label == "link-twists":
            (lengths,) = item.params
            if f"lengths={list(lengths)}" not in stdout:
                return ["twist lengths not echoed"]
        elif label == "link-augment":
            (t,) = item.params
            if vef != (3 * t, 6 * t, 3 * t + 2):
                return [f"augmented census {vef}"]
        return []


WORKLOADS = {w.name: w for w in (PolySkeletons, LinkSmall, LinkLarge, CliReadme)}
