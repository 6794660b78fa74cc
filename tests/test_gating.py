"""Characterization of `link_report` gating: which rows apply, which are best,
and their values, for every `HypothesisFlags` combination.

The golden file pins the applicability of every row on twist decompositions
with t = 1, 2, 3..8 and > 8 twists, c < 3 and c < 5 crossings, and minimal
twist length below and at least 7, each with and without a white census and
Jones data.  Regenerate with `python tests/test_gating.py`; any byte of
difference is a change in which rows apply, to be made on purpose.
"""

from itertools import product
from pathlib import Path

from volbounds.links import HypothesisFlags, link_report
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


if __name__ == "__main__":
    GOLDEN.write_text(gating_transcript())
