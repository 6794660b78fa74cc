import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from map_corpus import double_edge, maps_isomorphic

from volbounds import maps
from volbounds.augmented import augment
from volbounds.cli import _link_doc, _mirror, _render, build_parser, run
from volbounds.links import two_bridge_inputs
from volbounds.maps import map_from_dict, map_to_dict, medial, pyramid, tetrahedron, validate_map
from volbounds.twists import two_bridge_diagram


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestLob:
    def test_pi_over_four(self):
        code, out, _ = invoke(["lob", "--theta", "0.7853981633974483"])
        assert code == 0
        assert out.strip() == "0.457983"

    def test_constants(self):
        code, out, _ = invoke(["constants"])
        assert code == 0
        assert "v_tet: 1.014942" in out
        assert "v_oct: 3.663862" in out


class TestPolyFamily:
    def test_prism_nine_bounds(self):
        code, out, _ = invoke(["poly", "family", "--name", "prism", "--n", "9", "--bounds"])
        assert code == 0
        # the all-trivalent refinement beats the prism bound from n = 8 on
        assert "triangle-trivalent" in out and "prism-atkinson" in out
        rows = {line.split()[0]: line.split() for line in out.splitlines() if "upper" in line}
        assert float(rows["triangle-trivalent"][2]) < float(rows["prism-atkinson"][2])

    def test_unknown_family(self):
        code, _, err = invoke(["poly", "family", "--name", "dodecahedron", "--n", "5", "--bounds"])
        assert code == 2
        assert "unknown family" in err

    def test_missing_n(self):
        code, _, err = invoke(["poly", "family", "--name", "prism", "--bounds"])
        assert code == 2

    @pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron"])
    def test_fixed_family_refuses_n(self, name):
        assert invoke(["poly", "family", "--name", name, "--n", "5"]) == (
            2, "", f"error: family {name} takes no --n\n"
        )

    def test_bound_implies_the_report(self):
        prism5 = ["poly", "family", "--name", "prism", "--n", "5"]
        code, out, _ = invoke(prism5 + ["--bound", "edge-bound"])
        assert (code, out) == (0, "18.319312\n")
        assert invoke(prism5 + ["--bounds", "--bound", "edge-bound"]) == (code, out, "")
        code, _, err = invoke(prism5 + ["--bound", "no-such-bound"])
        assert code == 2 and "unknown bound name" in err
        # the pyramid apex has degree 5, outside Atkinson's {3, 4}
        pyramid5 = ["poly", "family", "--name", "pyramid", "--n", "5"]
        code, _, err = invoke(pyramid5 + ["--bound", "atkinson-mixed", "--non-obtuse"])
        assert code == 3 and "not applicable" in err
        # prism(5) is trivalent, but only the caller can assert non-obtuse
        code, _, err = invoke(prism5 + ["--bound", "atkinson-mixed"])
        assert code == 3 and "not applicable" in err
        assert invoke(prism5 + ["--bound", "atkinson-mixed", "--non-obtuse"]) == (
            0, "35.162114\n", ""
        )
        # the cube's report has no prism row
        assert invoke(["poly", "family", "--name", "cube", "--bound", "prism-atkinson"]) == (
            2, "", "error: unknown bound name 'prism-atkinson'\n"
        )

    def test_json_format(self):
        code, out, _ = invoke(
            ["--format", "json", "poly", "family", "--name", "cube", "--bounds"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["census"]["V"] == 8
        assert any(r["name"] == "edge-bound" for r in doc["bounds"])
        for row in doc["bounds"]:
            if row["applicable"]:
                assert len(row["value"].split(".")[1]) == 6


FAMILY_MEMBERS = [
    (family, n)
    for family, low in (
        ("pyramid", 3),
        ("bipyramid", 3),
        ("prism", 3),
        ("antiprism", 3),
        ("two-apex-pyramid", 4),
        ("twisted-antiprism", 4),
    )
    for n in range(low, 13)
] + [(name, None) for name in ("tetrahedron", "cube", "octahedron")]
EXACT_ROWS = {"pyramid": "antiprism-volume", "two-apex-pyramid": "twisted-antiprism-volume"}


@pytest.mark.parametrize("family,n", FAMILY_MEMBERS)
def test_family_best_column(family, n):
    size = [] if n is None else ["--n", str(n)]
    code, out, _ = invoke(["--format", "json", "poly", "family", "--name", family, *size, "--bounds"])
    assert code == 0
    rows = [r for r in json.loads(out)["bounds"] if r["applicable"]]
    best = {
        "upper": min(float(r["value"]) for r in rows if r["kind"] == "upper"),
        "lower": max(float(r["value"]) for r in rows if r["kind"] == "lower"),
    }
    expected = {r["name"] for r in rows if float(r["value"]) == best[r["kind"]]}
    starred = {r["name"] for r in json.loads(out)["bounds"] if r["best"]}
    assert starred == expected
    if family in EXACT_ROWS and n >= 5:
        # the exact supremum is the only best upper bound
        uppers = {r["name"] for r in rows if r["best"] and r["kind"] == "upper"}
        assert uppers == {EXACT_ROWS[family]}


def test_out_of_memory_is_a_usage_error(monkeypatch):
    # the builder refuses before allocating anything; the real pyramid(10**11)
    # would ask for terabytes
    def refuse(n):
        raise MemoryError

    monkeypatch.setattr(maps, "pyramid", refuse)
    assert invoke(["poly", "family", "--name", "pyramid", "--n", "100000000000"]) == (
        2, "", "error: out of memory: the input is too large\n"
    )


class TestPolyFiles:
    def test_medial_round_trip(self, tmp_path):
        src = tmp_path / "pyr4.json"
        med_path = tmp_path / "medial.json"
        code, _, _ = invoke(["poly", "family", "--name", "pyramid", "--n", "4", "--out", str(src)])
        assert code == 0
        code, out, _ = invoke(["poly", "medial", "--file", str(src), "--out", str(med_path)])
        assert code == 0
        reloaded = map_from_dict(json.loads(med_path.read_text()))
        assert validate_map(reloaded) == validate_map(medial(pyramid(4)))
        assert maps_isomorphic(reloaded, medial(pyramid(4)))

    def test_dual_writes_file(self, tmp_path):
        src = tmp_path / "cube.json"
        dual_path = tmp_path / "dual.json"
        invoke(["poly", "family", "--name", "cube", "--out", str(src)])
        code, out, _ = invoke(["poly", "dual", "--file", str(src), "--out", str(dual_path)])
        assert code == 0
        census = validate_map(map_from_dict(json.loads(dual_path.read_text())))
        assert (census.V, census.E, census.F) == (6, 12, 8)

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"darts": 2, "alpha": [0, 1], "sigma": [0, 1]}')
        code, _, err = invoke(["poly", "graph", "--file", str(bad)])
        assert code == 2
        assert "fixed-dart" in err

    def test_parallel_edge(self, tmp_path):
        # a doubled edge is no 3-connected simple graph, but the medial takes
        # any map, the digon of the doubled edge included
        double = tmp_path / "double.json"
        double.write_text(json.dumps(map_to_dict(double_edge(tetrahedron(), 0))))
        assert invoke(["poly", "graph", "--file", str(double)]) == (
            2, "", "error: rectification_bounds: skeleton must be 3-connected\n"
        )
        code, out, err = invoke(["poly", "medial", "--file", str(double)])
        assert (code, err) == (0, "")
        assert "census: V=7 " in out

    def test_too_few_vertices_for_bounds(self, tmp_path):
        single_edge = tmp_path / "edge.json"
        single_edge.write_text('{"darts": 2, "alpha": [1, 0], "sigma": [0, 1]}')
        code, _, err = invoke(["poly", "graph", "--file", str(single_edge)])
        assert code == 2
        assert err == "error: rectification_bounds: skeleton must be 3-connected\n"

    def test_map_file_not_an_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 0]")
        assert invoke(["poly", "graph", "--file", str(bad)]) == (
            2, "", "error: format: bad map object: not a JSON object\n"
        )

    def test_map_file_missing_key(self, tmp_path):
        bad = tmp_path / "no_darts.json"
        bad.write_text('{"alpha": [1, 0], "sigma": [0, 1]}')
        assert invoke(["poly", "graph", "--file", str(bad)]) == (
            2, "", "error: format: bad map object: missing key 'darts'\n"
        )

    def test_map_file_alpha_not_a_list(self, tmp_path):
        bad = tmp_path / "alpha.json"
        bad.write_text('{"darts": 2, "alpha": 1, "sigma": [0, 1]}')
        assert invoke(["poly", "graph", "--file", str(bad)]) == (
            2, "", "error: format: bad map object: alpha is not a list\n"
        )


# json's decoder recurses once per nesting level; every --file reader refuses
# a file nested past the recursion limit as invalid input
@pytest.mark.parametrize(
    "command", [["poly", "graph"], ["poly", "medial"], ["poly", "dual"], ["link", "augment"]]
)
def test_deeply_nested_file(command, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert invoke(command + ["--file", str(deep)]) == (
        2, "", f"error: {deep}: JSON nested too deeply\n"
    )


class TestLinkTwoBridge:
    def test_worked_example_table(self):
        code, out, _ = invoke(["link", "two-bridge", "--fraction", "55/17"])
        assert code == 0
        assert "continued fraction [3, 4, 4]" in out
        assert "t=3" in out and "c=11" in out
        adams_row = next(line for line in out.splitlines() if line.strip().startswith("adams-twist"))
        assert "16.042742" in adams_row

    def test_deterministic_output(self):
        first = invoke(["link", "two-bridge", "--fraction", "55/17"])
        second = invoke(["link", "two-bridge", "--fraction", "55/17"])
        assert first == second

    def test_json_document(self):
        code, out, _ = invoke(["--format", "json", "link", "two-bridge", "--fraction", "55/17", "--jones", "1,2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["twists"]["t"] == 3 and doc["twists"]["c"] == 11
        assert doc["white_census"] == {"3": 2, "4": 3}
        by_name = {r["name"]: r for r in doc["bounds"]}
        assert by_name["jones-lower"]["value"] == "3.663862"
        assert by_name["two-bridge-upper"]["best"] is True
        assert doc["warnings"] == []

    def test_torus_link_refused(self):
        # 7/6 is the mirror of the torus link 7/1
        assert invoke(["link", "two-bridge", "--fraction", "7/6"]) == (
            2, "", "error: two_bridge_lengths: b(7/6) has a single twist region: a (2, 7) torus link\n"
        )

    def test_mirror_is_named(self):
        code, out, _ = invoke(["link", "two-bridge", "--fraction", "7/5"])
        assert code == 0
        assert "input: two-bridge b(7/5), mirror of b(7/2), continued fraction [3, 2]" in out
        assert "lengths=[3, 2] t=2 c=5" in out

    def test_jones_needs_two_coefficients(self):
        assert invoke(["link", "two-bridge", "--fraction", "55/17", "--jones", "1"]) == (
            2, "", "error: --jones expects two comma-separated integers, got '1'\n"
        )

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_negative_jones_in_equals_form(self, fmt):
        # the magnitudes are what count, so -1,2 reads as 1,2
        base = ["--format", fmt, "link", "two-bridge", "--fraction", "55/17"]
        signed = invoke(base + ["--jones=-1,2"])
        assert signed[0] == 0
        assert signed == invoke(base + ["--jones", "1,2"])

    def test_negative_jones_as_separate_word_is_a_usage_error(self):
        # argparse reads a separate "-1,2" as an option, so the help says
        # to attach it with "="
        code, out, err = invoke(["link", "two-bridge", "--fraction", "55/17", "--jones", "-1,2"])
        assert (code, out) == (2, "")
        assert err.endswith(
            "volbounds link two-bridge: error: argument --jones: expected one argument\n"
        )

    def test_figure_eight_flagging(self):
        code, out, _ = invoke(["--format", "json", "link", "two-bridge", "--fraction", "5/2"])
        doc = json.loads(out)
        by_name = {r["name"]: r for r in doc["bounds"]}
        assert not by_name["adams-crossing"]["applicable"]

    def test_invalid_fraction(self):
        for bad in ("55", "4/2", "17/55", "x/y"):
            code, _, err = invoke(["link", "two-bridge", "--fraction", bad])
            assert code == 2, bad

    def test_bound_selector(self):
        code, out, _ = invoke(["link", "two-bridge", "--fraction", "55/17", "--bound", "agol-thurston"])
        assert code == 0
        assert out.strip() == "20.298832"

    def test_single_twist_refused(self):
        assert invoke(["link", "two-bridge", "--fraction", "3/1"]) == (
            2, "", "error: two_bridge_lengths: b(3/1) has a single twist region: a (2, 3) torus link\n"
        )


@pytest.mark.parametrize(
    "argv, value",
    [
        # a family's own row is evaluated with the rest
        (["poly", "family", "--name", "pyramid", "--n", "6", "--bound", "antiprism-volume"], "10.149416"),
        (
            ["poly", "family", "--name", "two-apex-pyramid", "--n", "6", "--bound", "twisted-antiprism-volume"],
            "11.801747",
        ),
        # Dasbach-Lin's v_oct (max(|a_{n+1}|, |a_{m-1}|) - 1) is 0 for the
        # figure-eight knot's (1, 1)
        (["link", "two-bridge", "--fraction", "5/2", "--jones", "1,1", "--bound", "jones-lower"], "0.000000"),
    ],
    ids=["pyramid", "two-apex-pyramid", "figure-eight"],
)
def test_bound_value(argv, value):
    assert invoke(argv) == (0, f"{value}\n", "")


# the Jones pair refuses a twist number |a_{n+1}| + |a_{m-1}| below 2 on
# both rows, whether the flags come from a fraction or from the caller
@pytest.mark.parametrize(
    "argv",
    [
        ["link", "two-bridge", "--fraction", "55/17", "--jones", "0,1", "--bound", "jones-lower"],
        ["link", "twists", "--lengths", "3,4,4", "--jones", "0,1", "--bound", "jones-upper"],
    ],
    ids=["two-bridge", "twists"],
)
def test_jones_pair_refuses_twist_number_below_two(argv):
    assert invoke(argv) == (3, "", f"bound {argv[-1]} not applicable under the given hypotheses\n")


def _two_bridge_doc_from_p(p: int, q: int, jones) -> dict:
    """The `link two-bridge` report with the white census read off the built P."""
    diagram = two_bridge_diagram(p, q)
    _, flags, _ = two_bridge_inputs(p, q)
    return _link_doc(
        diagram.decomposition(),
        flags,
        white_census=augment(diagram).white_census,
        jones=jones,
        description=f"two-bridge b({p}/{q}){_mirror(p, q)}, continued fraction {list(diagram.lengths)}",
    )


def test_two_bridge_report_matches_the_augmented_census():
    # one parser for all ~4400 commands: building one per command (as `run`
    # does) would add about 3 s
    parser = build_parser()

    def stdout(argv):
        args = parser.parse_args(argv)
        out = io.StringIO()
        with redirect_stdout(out):
            assert args.func(args) == 0, argv
        return out.getvalue()

    checked = 0
    for p in range(3, 62):
        for q in range(1, p):
            if gcd(p, q) != 1 or q in (1, p - 1):  # torus links are refused
                continue
            for jones in (None, (1, 2)):
                argv = ["link", "two-bridge", "--fraction", f"{p}/{q}"]
                if jones:
                    argv += ["--jones", "1,2"]
                doc = _two_bridge_doc_from_p(p, q, jones)
                table = io.StringIO()
                _render(doc, "table", table)
                assert stdout(["--format", "table"] + argv) == table.getvalue(), argv
                # the JSON renderer is the same; compare what it was given
                printed = json.loads(stdout(["--format", "json"] + argv))
                assert printed == json.loads(json.dumps(doc)), argv
                checked += 2
    assert checked > 4000


class TestLinkTwists:
    def test_not_applicable_exit_code(self):
        code, _, err = invoke(["link", "twists", "--lengths", "3,4,4", "--bound", "adams-twist"])
        assert code == 3
        assert "not applicable" in err

    def test_flags_enable(self):
        code, out, _ = invoke(
            [
                "link", "twists", "--lengths", "3,4,4",
                "--reduced", "--alternating", "--not-borromean",
                "--bound", "adams-twist",
            ]
        )
        assert code == 0
        assert out.strip() == "16.042742"

    def test_unknown_bound_name(self):
        code, _, err = invoke(["link", "twists", "--lengths", "3,4,4", "--bound", "nosuch"])
        assert code == 2

    def test_zero_length_rejected(self):
        code, _, err = invoke(["link", "twists", "--lengths", "3,0,4"])
        assert code == 2

    def test_negative_first_length_in_equals_form(self):
        # argparse reads a separate "-3,4,-4" as an option, so the help says
        # to attach it with "="
        code, out, err = invoke(["link", "twists", "--lengths=-3,4,-4"])
        assert (code, err) == (0, "")
        assert "lengths=[-3, 4, -4]" in out

    def test_no_negative_crossing_bound(self):
        # three crossings would give v_tet (4c - 16) = -4 v_tet, marked best
        argv = ["link", "twists", "--lengths", "1,1,1", "--not-figure-eight"]
        code, out, _ = invoke(["--format", "json"] + argv)
        by_name = {r["name"]: r for r in json.loads(out)["bounds"]}
        assert code == 0
        assert not by_name["adams-crossing"]["applicable"]
        assert [r["name"] for r in by_name.values() if r["best"]] == ["agol-thurston"]
        assert invoke(argv + ["--bound", "adams-crossing"])[0] == 3


class TestLinkAugment:
    def test_two_bridge_augment(self, tmp_path):
        out_file = tmp_path / "aug.json"
        code, out, _ = invoke(
            ["--format", "json", "link", "augment", "--fraction", "55/17", "--out", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["census"]["V"] == 9
        assert doc["white_census"] == {"3": 2, "4": 3}
        saved = json.loads(out_file.read_text())
        # the map object plus the report's three P fields
        assert set(saved) == {"darts", "alpha", "sigma", "red", "dark_faces", "white_census"}
        assert saved["white_census"] == {"3": 2, "4": 3}

    def test_mirror_is_named(self):
        # 7/5 is read as its mirror 7/2, whose normal form [3, 2] gives P
        code, out, _ = invoke(["link", "augment", "--fraction", "7/5"])
        _, direct, _ = invoke(["link", "augment", "--fraction", "7/2"])
        assert code == 0
        first, rest = out.split("\n", 1)
        assert first == "input: augmentation of b(7/5), mirror of b(7/2)"
        assert direct == f"input: augmentation of b(7/2)\n{rest}"

    def test_diagram_file_input(self, tmp_path):
        # a diagram written by --out-diagram augments to the same P; only the
        # input line differs
        diagram_path = tmp_path / "diagram.json"
        code, written, _ = invoke(
            ["link", "augment", "--fraction", "13/5", "--out-diagram", str(diagram_path)]
        )
        assert code == 0
        code, read, _ = invoke(["link", "augment", "--file", str(diagram_path)])
        assert code == 0
        first, rest = written.split("\n", 1)
        assert first == "input: augmentation of b(13/5)"
        assert read == f"input: augmentation of {diagram_path}\n{rest}"
        assert rest.startswith("census: V=12 ")  # 13/5 = [2,1,1,2] has t=4 twists

    def test_three_hundred_twists(self):
        # [2] * 300 has t = 300 twists: P's census after the orbit walks over its 3600 darts
        v = Fraction(2)
        for _ in range(299):
            v = 2 + 1 / v
        code, out, _ = invoke(["link", "augment", "--fraction", f"{v.numerator}/{v.denominator}"])
        assert code == 0
        assert "\ncensus: V=900 E=1800 F=902 " in out

    def test_single_twist_diagram_file(self, tmp_path):
        # the figure-eight curve: one vertex, two loops
        diagram_path = tmp_path / "figure_eight_curve.json"
        diagram_path.write_text(
            '{"darts": 4, "alpha": [1, 0, 3, 2], "sigma": [1, 2, 3, 0], "axis": [0], "lengths": [3]}'
        )
        code, _, err = invoke(["link", "augment", "--file", str(diagram_path)])
        assert code == 2
        assert err.startswith("error: augmentation needs at least two twists")

    def test_diagram_file_missing_axis(self, tmp_path):
        diagram_path = tmp_path / "no_axis.json"
        diagram_path.write_text(
            '{"darts": 4, "alpha": [1, 0, 3, 2], "sigma": [1, 2, 3, 0], "lengths": [3]}'
        )
        assert invoke(["link", "augment", "--file", str(diagram_path)]) == (
            2, "", "error: format: bad diagram object: missing key 'axis'\n"
        )

    def test_usage_error(self):
        code, _, _ = invoke(["link", "augment"])
        assert code == 2


# one parser reads every integer option and words its refusal for the option
@pytest.mark.parametrize(
    "argv, message",
    [
        (["link", "twists", "--lengths", "3,,4"], "--lengths expects comma-separated integers, got '3,,4'"),
        (["link", "twists", "--lengths", "3,x"], "--lengths expects comma-separated integers, got '3,x'"),
        (
            ["link", "two-bridge", "--fraction", "55/17", "--jones", "a,b"],
            "--jones expects two comma-separated integers, got 'a,b'",
        ),
        (
            ["link", "twists", "--lengths", "3,4,4", "--jones", "1,2,3"],
            "--jones expects two comma-separated integers, got '1,2,3'",
        ),
        (["link", "two-bridge", "--fraction", "x/y"], "--fraction expects p/q, got 'x/y'"),
        (["link", "augment", "--fraction", "55"], "--fraction expects p/q, got '55'"),
    ],
)
def test_integer_option_refusals(argv, message):
    assert invoke(argv) == (2, "", f"error: {message}\n")


GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_FAMILIES = (("pyramid", 3), ("two-apex-pyramid", 4), ("prism", 3))


def _readme_commands() -> list[list[str]]:
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("volbounds ")]


def golden_transcript(fmt: str) -> str:
    """Exit code, stdout and stderr of the README CLI block and of the family
    reports, run in the current directory (the block writes files there)."""
    commands = _readme_commands() + [
        ["poly", "family", "--name", name, "--n", str(n), "--bounds"]
        for name, low in GOLDEN_FAMILIES
        for n in range(low, 13)
    ]
    parts = []
    for argv in commands:
        code, out, err = invoke(["--format", fmt] + argv)
        parts.append(f"$ volbounds --format {fmt} {' '.join(argv)}\n[exit {code}]\n{out}{err}")
    return "".join(parts)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_golden_transcript(fmt, tmp_path, monkeypatch):
    # any byte of difference is an output change, to be made on purpose and
    # recorded; regenerate with `PYTHONPATH=src python tests/test_cli.py`
    monkeypatch.chdir(tmp_path)
    assert golden_transcript(fmt) == (GOLDEN / f"cli.{fmt}.txt").read_text()


HELP_COMMANDS = (
    [],
    ["lob"],
    ["constants"],
    ["poly"],
    ["poly", "family"],
    ["poly", "graph"],
    ["poly", "medial"],
    ["poly", "dual"],
    ["link"],
    ["link", "two-bridge"],
    ["link", "twists"],
    ["link", "augment"],
)


def help_transcript() -> str:
    """The ``--help`` text of every command and subcommand; argparse wraps it
    to the terminal width, so callers fix ``COLUMNS``."""
    parts = []
    for argv in HELP_COMMANDS:
        code, out, err = invoke(argv + ["--help"])
        parts.append(f"$ volbounds {' '.join(argv + ['--help'])}\n[exit {code}]\n{out}{err}")
    return "".join(parts)


def test_golden_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_transcript() == (GOLDEN / "help.txt").read_text()


# argparse's own refusals: an unknown or missing command at each level, each
# leaf without its required option, mutually exclusive inputs, bad values
# and option abbreviations
USAGE_COMMANDS = (
    [],
    ["frobnicate"],
    ["poly"],
    ["poly", "frob"],
    ["link"],
    ["link", "frob"],
    ["lob"],
    ["poly", "family"],
    ["poly", "graph"],
    ["poly", "medial"],
    ["poly", "dual"],
    ["link", "two-bridge"],
    ["link", "twists"],
    ["link", "augment"],
    ["link", "augment", "--fraction", "55/17", "--file", "d.json"],
    ["--format", "xml", "lob", "--theta", "1"],
    ["--form", "json", "constants"],
    ["--format=json", "constants"],
    ["poly", "family", "--name", "prism", "--n", "nine"],
    ["lob", "--theta", "pi"],
)


def usage_transcript() -> str:
    """Exit code, stdout and stderr of :data:`USAGE_COMMANDS`; argparse
    wraps its usage lines to the terminal width, so callers fix ``COLUMNS``."""
    parts = []
    for argv in USAGE_COMMANDS:
        code, out, err = invoke(argv)
        parts.append(f"$ volbounds {' '.join(argv)}\n[exit {code}]\n{out}{err}")
    return "".join(parts)


def test_golden_usage(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_transcript() == (GOLDEN / "usage.txt").read_text()


def test_unknown_subcommand():
    code, _, _ = invoke(["frobnicate"])
    assert code == 2


def _src_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_import_leaves_scipy_unloaded():
    # the library depends on no third-party package, so the CLI loads no scipy
    code = "import sys, volbounds.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bare_import_loads_no_submodule():
    code = "import sys, volbounds; print([m for m in sys.modules if m.startswith('volbounds.')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the link reports read twist data and the closed-form white census: only
# `link augment` builds a diagram map and P
_LINK_MODULES = {"links", "twists", "lobachevsky"}
_POLY_BOUNDS_MODULES = {"maps", "polyhedra", "lobachevsky"}
# the library modules a command loads besides the package itself
COMMAND_MODULES = {
    "lob": {"lobachevsky"},
    "constants": {"lobachevsky"},
    "poly family": {"maps"},
    "poly family --bounds": _POLY_BOUNDS_MODULES,
    "poly graph": _POLY_BOUNDS_MODULES,
    "poly medial": {"maps"},
    "poly dual": {"maps"},
    "link twists": _LINK_MODULES,
    "link two-bridge": _LINK_MODULES,
    "link augment": _LINK_MODULES | {"maps", "augmented"},
}


def _command(argv: list[str]) -> str:
    if argv[0] == "--format":
        argv = argv[2:]
    command = " ".join(argv[:1] if argv[0] in ("lob", "constants") else argv[:2])
    if command == "poly family" and ("--bounds" in argv or "--bound" in argv):
        command += " --bounds"
    return command


def _command_stdlib(argv: list[str]) -> set[str]:
    """The stdlib modules of {dataclasses, json} a command may load:
    dataclasses for the augmented polyhedron, which only `link augment`
    builds, json to read or write a file or to print JSON."""
    loaded = set()
    if _command(argv) == "link augment":
        loaded.add("dataclasses")
    if argv[:2] == ["--format", "json"] or {"--file", "--out", "--out-diagram"} & set(argv):
        loaded.add("json")
    return loaded


def _imported(args: list[str], cwd) -> list[str]:
    """The modules ``python -X importtime *args`` imports, in order."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=_src_env(), cwd=cwd, timeout=60,
    )
    assert proc.returncode == 0, (args, proc.stderr)
    return [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]


def test_readme_commands_load_only_their_modules(tmp_path):
    # what a bare interpreter loads (a site .pth may preload stdlib modules)
    # is no command's doing
    preloaded = set(_imported(["-c", "pass"], tmp_path))
    # the README block runs in order: later commands read pyr4.json
    for argv in _readme_commands() + [["--format", "json", "constants"]]:
        imported = _imported(["-m", "volbounds.cli", *argv], tmp_path)
        loaded = {name.removeprefix("volbounds.") for name in imported if name.startswith("volbounds.")}
        assert loaded == COMMAND_MODULES[_command(argv)], argv
        stdlib = {"dataclasses", "json"} & set(imported)
        assert stdlib - preloaded == _command_stdlib(argv) - preloaded, argv


def test_readme_library_example():
    section = README.read_text().split("## Library example", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("two-bridge-upper 14.655449")
    assert lines[1].split()[-1].startswith("16.04274")
    assert lines[2] == "5 8 5"


@pytest.mark.parametrize(
    "code, argv",
    [
        (2, ["link", "two-bridge", "--fraction", "7/6"]),
        (3, ["link", "twists", "--lengths", "3,4,4", "--bound", "adams-twist"]),
    ],
    ids=["invalid-input", "not-applicable"],
)
def test_main_exits_with_the_code_run_returns(code, argv):
    # `invoke` drives `run` in process; `main` passes its code to sys.exit
    proc = subprocess.run(
        [sys.executable, "-m", "volbounds.cli", *argv],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == invoke(argv)[2]
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_one_quietly():
    # b/a = [1; 1, ..., 1, 2] with 8000 twists: about 250 kB of JSON, far
    # more than a pipe buffer holds, so the writer is still writing when the
    # reader goes away
    a, b = 1, 2
    for _ in range(7998):
        a, b = b, a + b
    proc = subprocess.Popen(
        [sys.executable, "-m", "volbounds.cli", "--format", "json",
         "link", "augment", "--fraction", f"{b}/{a}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "error:" not in err
    assert "Exception ignored" not in err


if __name__ == "__main__":
    # rewrite the golden transcripts from the current code
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for fmt in ("table", "json"):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            text = golden_transcript(fmt)
        (GOLDEN / f"cli.{fmt}.txt").write_text(text)
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help.txt").write_text(help_transcript())
    (GOLDEN / "usage.txt").write_text(usage_transcript())
