"""Lobachevsky-function numerics and exact volumes of the standard ideal families.

Everything downstream (polyhedron and link volume bounds) is a rational
combination of a handful of transcendental constants: v_tet = 3*L(pi/3),
v_oct = 8*L(pi/4), values L(p*pi/q), and pi*log(n/2).  This module provides

* two structurally independent evaluators of the Lobachevsky function
  (a zeta-accelerated series and a Simpson-rule quadrature oracle),
* the volumes of antiprisms and twisted antiprisms, exact and in floats,
* :class:`VolumeExpr`, an exact rational combination of the basis constants
  that is only converted to floating point at the boundary, and
* :class:`Bound`, the report row that the polyhedron and link reports share,
  with its constructor :func:`bound_row` and :func:`mark_best`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

__all__ = [
    "lobachevsky",
    "lobachevsky_quadrature",
    "v_tet",
    "v_oct",
    "V_TET",
    "V_OCT",
    "antiprism_volume",
    "twisted_antiprism_volume",
    "VolumeExpr",
    "antiprism_expr",
    "twisted_antiprism_expr",
    "NotApplicable",
    "Bound",
    "bound_row",
    "mark_best",
]


def _even_zeta_table(count: int) -> list[float]:
    """zeta(2), zeta(4), ..., zeta(2*count) to double precision."""
    table = [math.pi**2 / 6.0, math.pi**4 / 90.0, math.pi**6 / 945.0]
    for n in range(4, count + 1):
        s = 2 * n
        # direct summation; tail < k^(1-s)/(s-1) drops below 1e-20 quickly
        k_max = max(4, int(10.0 ** (20.0 / s)) + 2)
        table.append(sum(k ** (-s) for k in range(1, k_max + 1)))
    return table[:count]


_ZETA_EVEN = _even_zeta_table(48)


def _reduce_angle(theta: float) -> float:
    """Map theta to the congruent angle in (-pi/2, pi/2] using periodicity."""
    r = math.fmod(theta, math.pi)
    if r > math.pi / 2.0:
        r -= math.pi
    elif r <= -math.pi / 2.0:
        r += math.pi
    return r


def lobachevsky(theta: float) -> float:
    """Lobachevsky function L(theta) = -integral_0^theta log|2 sin t| dt.

    The angle is reduced to (-pi/2, pi/2] via pi-periodicity and oddness,
    then evaluated by the zeta-accelerated series

        L(x) = x - x*log(2x) + sum_{n>=1} zeta(2n)/(n(2n+1)) * x^(2n+1)/pi^(2n)

    truncated adaptively with a geometric tail bound.  Absolute error stays
    below 1e-12 (in practice near machine precision).
    """
    if not math.isfinite(theta):
        raise ValueError("lobachevsky: theta must be finite")
    x = _reduce_angle(theta)
    if x == 0.0:
        return 0.0
    sign = 1.0
    if x < 0.0:
        sign, x = -1.0, -x

    ratio = (x / math.pi) ** 2
    total = x - x * math.log(2.0 * x)
    power = x
    for n, zeta in enumerate(_ZETA_EVEN, start=1):
        power *= ratio
        term = zeta * power / (n * (2 * n + 1))
        total += term
        # remaining terms are dominated by a geometric series of ratio <= 1/4
        if term < 1e-17 * (1.0 - ratio):
            break
    else:  # pragma: no cover - table is sized for the worst case x = pi/2
        raise AssertionError("series truncation bound not reached")
    return sign * total


_SIMPSON_PANELS = 1024  # 2049 nodes; error near 1e-15 on [0, pi/2]


def lobachevsky_quadrature(theta: float) -> float:
    """Independent evaluation of L(theta) by a composite Simpson rule.

    The angle is brought into [0, pi/2] by pi-periodicity and
    L(pi - x) = -L(x), and the log singularity at t=0 is handled analytically,

        integral_0^x log(2 sin t) dt = x*log(2x) - x + integral_0^x log(sin(t)/t) dt,

    leaving a smooth integrand for Simpson's rule on ``_SIMPSON_PANELS``
    panels.  Shares no code with :func:`lobachevsky`, so the two can
    oracle-check each other.
    """
    if not math.isfinite(theta):
        raise ValueError("lobachevsky_quadrature: theta must be finite")
    x = math.fmod(theta, math.pi)
    if x < 0.0:
        x += math.pi
    sign = 1.0
    if x > math.pi / 2.0:
        sign, x = -1.0, math.pi - x
    if x == 0.0:
        return 0.0
    h = x / (2 * _SIMPSON_PANELS)
    f = [math.log(math.sin(k * h) / (k * h)) for k in range(1, 2 * _SIMPSON_PANELS + 1)]
    smooth = h / 3.0 * (4.0 * math.fsum(f[0::2]) + 2.0 * math.fsum(f[1:-1:2]) + f[-1])
    return -sign * (x * math.log(2.0 * x) - x + smooth)


def v_tet() -> float:
    """Volume of the regular ideal tetrahedron, 3*L(pi/3)."""
    return 3.0 * lobachevsky(math.pi / 3.0)


def v_oct() -> float:
    """Volume of the regular ideal octahedron, 8*L(pi/4)."""
    return 8.0 * lobachevsky(math.pi / 4.0)


V_TET = v_tet()
V_OCT = v_oct()


def _require_n(n: int, minimum: int, what: str) -> None:
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f"{what}: need integer n >= {minimum}, got {n!r}")


def antiprism_volume(n: int) -> float:
    """Thurston's volume 2n*[L(pi/4 + pi/2n) + L(pi/4 - pi/2n)] of the ideal
    right-angled n-antiprism; the float oracle of :func:`antiprism_expr`."""
    _require_n(n, 3, "antiprism_volume")
    half = math.pi / (2.0 * n)
    return 2.0 * n * (lobachevsky(math.pi / 4.0 + half) + lobachevsky(math.pi / 4.0 - half))


def twisted_antiprism_volume(n: int) -> float:
    """Volume of the twisted n-antiprism, vol A(n-1) + vol A(3)."""
    _require_n(n, 4, "twisted_antiprism_volume")
    return antiprism_volume(n - 1) + antiprism_volume(3)


# ---------------------------------------------------------------------------
# Exact rational combinations of the basis constants
# ---------------------------------------------------------------------------

# basis keys: "one", "v_tet", "v_oct", ("lob", p, q) -> L(p*pi/q) with
# 0 < p/q <= 1/2 in lowest terms, ("pilog", n) -> pi*log(n/2)


@cache
def _basis_value(key) -> float:
    """Float value of one basis constant, evaluated once per key."""
    if key == "one":
        return 1.0
    if key == "v_tet":
        return V_TET
    if key == "v_oct":
        return V_OCT
    if key[0] == "lob":
        return lobachevsky(math.pi * key[1] / key[2])
    if key[0] == "pilog":
        return math.pi * math.log(key[1] / 2.0)
    raise KeyError(key)


def _lob_term(key, coef: Fraction) -> tuple[tuple, Fraction]:
    """``coef * L(p*pi/q)`` with its key in canonical form, using that L is
    odd and pi-periodic (L(0) = 0 gives a zero coefficient)."""
    _, p, q = key
    if 0 < 2 * p <= q and math.gcd(p, q) == 1:
        return key, coef
    r = Fraction(p, q) % 1
    if 2 * r > 1:
        r, coef = 1 - r, -coef
    return ("lob", r.numerator, r.denominator), coef if r else Fraction(0)


class VolumeExpr:
    """Exact rational combination of {1, v_tet, v_oct, L(p*pi/q), pi*log(n/2)}.

    Bounds are assembled in this form and converted to floating point only at
    the boundary (:func:`bound_row`), so coefficient-level identities (e.g.
    "equals 4*v_tet") can be asserted exactly.  Each L(p*pi/q) has one key.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for key, coef in dict(terms or {}).items():
            frac = Fraction(coef)
            if key[0] == "lob":
                key, frac = _lob_term(key, frac)
                if key in cleaned:  # two spellings of one L(p*pi/q)
                    frac += cleaned.pop(key)
            if frac:
                cleaned[key] = frac
        self._terms = cleaned

    @classmethod
    def _canonical(cls, terms: dict) -> "VolumeExpr":
        """Arithmetic result: canonical keys, Fraction coefficients, no checks."""
        expr = cls.__new__(cls)
        expr._terms = {k: c for k, c in terms.items() if c}
        return expr

    @classmethod
    def constant(cls, value) -> "VolumeExpr":
        return cls({"one": value})

    @classmethod
    def v_tet(cls, coef=1) -> "VolumeExpr":
        return cls({"v_tet": coef})

    @classmethod
    def v_oct(cls, coef=1) -> "VolumeExpr":
        return cls({"v_oct": coef})

    @classmethod
    def lob(cls, n: int, coef=1) -> "VolumeExpr":
        return cls({("lob", 1, int(n)): coef})

    @classmethod
    def pilog(cls, n: int, coef=1) -> "VolumeExpr":
        return cls({("pilog", int(n)): coef})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    @property
    def value(self) -> float:
        return float(sum(float(c) * _basis_value(k) for k, c in self._terms.items()))

    def __add__(self, other: "VolumeExpr") -> "VolumeExpr":
        if not isinstance(other, VolumeExpr):
            return NotImplemented
        merged = dict(self._terms)
        for key, coef in other._terms.items():
            merged[key] = merged.get(key, 0) + coef
        return VolumeExpr._canonical(merged)

    def __sub__(self, other: "VolumeExpr") -> "VolumeExpr":
        if not isinstance(other, VolumeExpr):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "VolumeExpr":
        return (-1) * self

    def __mul__(self, scalar) -> "VolumeExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return VolumeExpr._canonical({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, VolumeExpr) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "VolumeExpr(0)"

        def label(key):
            if key == "one":
                return "1"
            if isinstance(key, str):
                return key
            if key[0] == "pilog":
                return f"pi*log({key[1]}/2)"
            _, p, q = key
            return f"L(pi/{q})" if p == 1 else f"L({p}*pi/{q})"

        parts = [f"{c}*{label(k)}" for k, c in sorted(self._terms.items(), key=lambda kv: str(kv[0]))]
        return "VolumeExpr(" + " + ".join(parts) + ")"


def antiprism_expr(n: int) -> VolumeExpr:
    """Thurston's volume 2n*[L((n+2)pi/4n) + L((n-2)pi/4n)] of the ideal
    right-angled n-antiprism."""
    _require_n(n, 3, "antiprism_expr")
    return VolumeExpr({("lob", n + 2, 4 * n): 2 * n, ("lob", n - 2, 4 * n): 2 * n})


def twisted_antiprism_expr(n: int) -> VolumeExpr:
    """Volume A(n-1) + A(3) of the twisted n-antiprism."""
    _require_n(n, 4, "twisted_antiprism_expr")
    return antiprism_expr(n - 1) + antiprism_expr(3)


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------


class NotApplicable(ValueError):
    """A bound's hypotheses are not met for the given input.

    A ``ValueError``, so a caller that rejects bad input by catching
    ``ValueError`` also rejects an unmet hypothesis.
    """


class Bound(
    namedtuple("Bound", "name kind value applicable hypotheses citation best", defaults=(False,))
):
    """One named bound value with its applicability metadata.

    ``kind`` is ``"upper"`` or ``"lower"``; ``value`` is a float, or ``None``
    when the row is not applicable; ``hypotheses`` is a tuple of strings;
    ``best`` defaults to False.
    """

    __slots__ = ()


def bound_row(name, kind, hypotheses, citation, compute, applicable=True) -> Bound:
    """Row whose value is ``compute().value``, evaluated only when
    ``applicable``: every report row leaves exact arithmetic here.

    Each hypothesis of a row is gated in one place.  ``compute`` raises
    :class:`NotApplicable` for a hypothesis on its own numeric arguments,
    which makes the row inapplicable; ``applicable`` carries only what those
    arguments cannot show (caller flags, presence of optional data).  An
    inapplicable row has value ``None``.
    """
    value = None
    if applicable:
        try:
            value = compute().value
        except NotApplicable:
            applicable = False
    return Bound(name, kind, value, applicable, hypotheses, citation)


def mark_best(rows: list[Bound]) -> list[Bound]:
    """Mark the minimum applicable upper and the maximum applicable lower
    bound best, and clear ``best`` elsewhere.

    Every row within float rounding of the best value ties with it, e.g. the
    exact volume of the rectification of the tetrahedron (the antiprism A(3))
    with its sharp bound v_oct.
    """
    uppers = [r.value for r in rows if r.applicable and r.kind == "upper"]
    lowers = [r.value for r in rows if r.applicable and r.kind == "lower"]
    best = {"upper": min(uppers, default=None), "lower": max(lowers, default=None)}
    marked = []
    for r in rows:
        flag = r.applicable and math.isclose(r.value, best[r.kind], rel_tol=1e-12)
        marked.append(r if r.best == flag else r._replace(best=flag))
    return marked
