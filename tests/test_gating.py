"""Characterization of `link_report` gating: which rows apply, which are best,
and their values, for every `HypothesisFlags` combination.

The golden file pins the applicability of every row on twist decompositions
with t = 1, 2, 3..8 and > 8 twists, c < 3 and c < 5 crossings, and minimal
twist length below and at least 7, each with and without a white census and
Jones data.  Regenerate with `PYTHONPATH=src python tests/test_gating.py`;
any byte of difference is a change in which rows apply, to be made on
purpose.

The other tests pin the rule behind the gating: a row's printed hypotheses
are its gate.  Each text a row prints is either decided by the report's
inputs, and then falsifying that input makes exactly the rows that print it
inapplicable, or it is listed in `NOT_GATED` with the reason.
"""

import re
from itertools import product
from pathlib import Path

import pytest

from volbounds.links import HypothesisFlags, NotApplicable, jones_bounds_expr, link_report
from volbounds.maps import pyramid
from volbounds.polyhedra import rectification_bounds
from volbounds.twists import TwistDecomposition

GOLDEN = Path(__file__).parent / "golden" / "gating.txt"

DECOMPOSITIONS = (
    (1,),
    (7,),
    (1, 1),
    (2, -2),
    (7, 8),
    (1, 1, 2),
    (2, 2, 2),
    (3, 4, 4),
    (-3, 4, -4),
    (1, 7, 2),
    (1, 1, 1, 1, 1),
    (7,) * 8,
    (5, 1, 2, 3, 4, 5, 6, 7),
    (9,) * 9,
    (1,) * 9,
    (7, 8, 9, 10, 11, 12, 7, 8, 9, 10),
)
JONES = (None, (1, 2), (0, 1))
FLAG_NAMES = HypothesisFlags._fields


def white_census(t: int) -> dict[int, int]:
    """A census meeting the handshake sum n f_n = 6t, with two triangles."""
    return {3: 2, 6: t - 1} if t > 1 else {3: 2}


def _mark(row) -> str:
    if not row.applicable:
        return "." if row.value is None and not row.best else "!"
    return "*" if row.best else "+"


def gating_transcript() -> str:
    lines = [
        "# one section per (lengths, white census, jones); 'values' gives each",
        "# row's value when applicable ('-' if never); then one line per flag",
        f"# combination (bits: {', '.join(FLAG_NAMES)})",
        "# with one mark per row in report order: '*' applicable and best,",
        "# '+' applicable, '.' not applicable",
    ]
    for lengths, census_known, jones in product(DECOMPOSITIONS, (False, True), JONES):
        d = TwistDecomposition(lengths)
        census = white_census(len(lengths)) if census_known else None
        reports = {}
        for bits in product((False, True), repeat=len(FLAG_NAMES)):
            flags = HypothesisFlags(**dict(zip(FLAG_NAMES, bits)))
            reports[bits] = link_report(d, flags, white_census=census, jones_coefficients=jones)
        names = [r.name for r in next(iter(reports.values()))]
        values = {name: set() for name in names}
        for rows in reports.values():
            assert [r.name for r in rows] == names
            for r in rows:
                if r.applicable:
                    values[r.name].add(r.value)
        lines.append(f"== lengths={list(lengths)} census={census} jones={jones}")
        for name in names:
            shown = "|".join(repr(v) for v in sorted(values[name])) or "-"
            lines.append(f"   {name}={shown}")
        for bits, rows in reports.items():
            lines.append("".join("1" if b else "0" for b in bits) + " " + "".join(map(_mark, rows)))
    return "\n".join(lines) + "\n"


def test_gating_golden():
    assert gating_transcript() == GOLDEN.read_text()


NUMERIC = "numeric: the *_expr raises"
# printed hypotheses that no input of either report decides, with the reason
NOT_GATED = {
    "hyperbolic": "ROADMAP 3(d): no flag carries it",
    "prime alternating non-torus knot": "ROADMAP 3(a): no flag carries it",
    "non-obtuse": "ROADMAP 3(e): no flag carries it",
    "c >= 5": NUMERIC,
    "t >= 3": NUMERIC,
    "t >= 2": NUMERIC,
    "t > 8": NUMERIC,
    "all twist lengths >= 7": NUMERIC,
    "3-connected skeleton": "rectification_bounds refuses every other skeleton",
    "ideal-right-angled medial (rectification)": "holds for every skeleton the report accepts",
    "lower bound for the rectification volume, i.e. for sup vol": "what the row bounds, no condition",
}

ALL_FLAGS = HypothesisFlags(*(True,) * len(FLAG_NAMES))
# a link input meeting every hypothesis: t = 9 twists, all of length 7
LINK_BASE = {
    "d": TwistDecomposition((7,) * 9),
    "flags": ALL_FLAGS,
    "white_census": white_census(9),
    "jones_coefficients": (1, 2),
}
# each change to LINK_BASE that falsifies an input, with the texts it falsifies
LINK_FALSIFIERS = {
    "reduced": (
        {"flags": ALL_FLAGS._replace(reduced=False)},
        {"reduced diagram (alternating or not)", "reduced alternating"},
    ),
    "alternating": ({"flags": ALL_FLAGS._replace(alternating=False)}, {"reduced alternating"}),
    "two_bridge": ({"flags": ALL_FLAGS._replace(two_bridge=False)}, {"two-bridge"}),
    "not_figure_eight": (
        {"flags": ALL_FLAGS._replace(not_figure_eight=False)},
        {"not the figure-eight knot"},
    ),
    "not_borromean": (
        {"flags": ALL_FLAGS._replace(not_borromean=False)},
        {"not the Borromean rings"},
    ),
    "white census": ({"white_census": None}, {"white census known"}),
}
# for each numeric text, twist lengths that fail it
NUMERIC_FALSIFIERS = {
    "c >= 5": (1, 1, 2),
    "t >= 3": (7, 7),
    "t >= 2": (7,),
    "t > 8": (7,) * 8,
    "all twist lengths >= 7": (7, 6, 7),
}
# pyramid(4) has degrees 3 and 4 only; pyramid(5)'s apex has degree 5
POLY_DEGREES = "vertex degrees in {3,4}"


def _printed(rows) -> set[str]:
    return {h for r in rows for h in r.hypotheses}


def _inapplicable(rows) -> set[str]:
    return {r.name for r in rows if not r.applicable}


def _printing(rows, texts) -> set[str]:
    return {r.name for r in rows if texts.intersection(r.hypotheses)}


def test_every_printed_hypothesis_is_gated_or_listed():
    gated = {POLY_DEGREES}.union(*(texts for _, texts in LINK_FALSIFIERS.values()))
    printed = _printed(link_report(**LINK_BASE)) | _printed(rectification_bounds(pyramid(4)))
    assert not gated & NOT_GATED.keys()
    assert printed == gated | NOT_GATED.keys()
    assert NUMERIC_FALSIFIERS.keys() == {h for h, why in NOT_GATED.items() if why == NUMERIC}


def test_base_inputs_meet_every_hypothesis():
    assert not _inapplicable(link_report(**LINK_BASE))
    assert not _inapplicable(rectification_bounds(pyramid(4)))


@pytest.mark.parametrize("falsified", sorted(LINK_FALSIFIERS))
def test_falsified_link_input_gates_exactly_the_rows_printing_it(falsified):
    change, texts = LINK_FALSIFIERS[falsified]
    rows = link_report(**{**LINK_BASE, **change})
    assert _printing(rows, texts)
    assert _inapplicable(rows) == _printing(rows, texts)


@pytest.mark.parametrize("text", sorted(NUMERIC_FALSIFIERS))
def test_failed_numeric_hypothesis_gates_every_row_printing_it(text):
    lengths = NUMERIC_FALSIFIERS[text]
    rows = link_report(TwistDecomposition(lengths), ALL_FLAGS, white_census(len(lengths)), (1, 2))
    assert _printing(rows, {text})
    assert _printing(rows, {text}) <= _inapplicable(rows)


def test_degree_five_vertex_gates_exactly_the_rows_printing_it():
    rows = rectification_bounds(pyramid(5))
    assert _inapplicable(rows) == _printing(rows, {POLY_DEGREES}) == {"atkinson-mixed"}


@pytest.mark.parametrize(
    "jones, upper_applies", [((0, 0), False), ((0, 1), False), ((1, 0), False), ((1, 1), True)]
)
def test_jones_upper_needs_a_positive_bound(jones, upper_applies):
    # 10 v_tet (|a_{n+1}| + |a_{m-1}| - 1) is positive iff the twist number is
    # at least 2, as for every prime alternating non-torus knot: the pair's
    # one gate makes both rows inapplicable below that
    rows = {r.name: r for r in link_report(**{**LINK_BASE, "jones_coefficients": jones})}
    for name in ("jones-lower", "jones-upper"):
        assert rows[name].applicable == upper_applies
        assert (rows[name].value is None) != upper_applies


def test_jones_bounds_expr_names_its_condition():
    with pytest.raises(NotApplicable, match=re.escape("|a_{n+1}| + |a_{m-1}| >= 2")):
        jones_bounds_expr(0, 1)


if __name__ == "__main__":
    GOLDEN.write_text(gating_transcript())
