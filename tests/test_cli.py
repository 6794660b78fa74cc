import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from map_corpus import maps_isomorphic

from volbounds.cli import _FLAG_FIELDS, run
from volbounds.links import HypothesisFlags
from volbounds.maps import load_map, medial, pyramid, validate_map


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
        code, _, err = invoke(pyramid5 + ["--bound", "atkinson-mixed"])
        assert code == 3 and "not applicable" in err

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
]
EXACT_ROWS = {"pyramid": "antiprism-volume", "two-apex-pyramid": "twisted-antiprism-volume"}


@pytest.mark.parametrize("family,n", FAMILY_MEMBERS)
def test_family_best_column(family, n):
    code, out, _ = invoke(
        ["--format", "json", "poly", "family", "--name", family, "--n", str(n), "--bounds"]
    )
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


class TestPolyFiles:
    def test_medial_round_trip(self, tmp_path):
        src = tmp_path / "pyr4.json"
        med_path = tmp_path / "medial.json"
        code, _, _ = invoke(["poly", "family", "--name", "pyramid", "--n", "4", "--out", str(src)])
        assert code == 0
        code, out, _ = invoke(["poly", "medial", "--file", str(src), "--out", str(med_path)])
        assert code == 0
        reloaded = load_map(med_path)
        assert validate_map(reloaded) == validate_map(medial(pyramid(4)))
        assert maps_isomorphic(reloaded, medial(pyramid(4)))

    def test_dual_writes_file(self, tmp_path):
        src = tmp_path / "cube.json"
        dual_path = tmp_path / "dual.json"
        invoke(["poly", "family", "--name", "cube", "--out", str(src)])
        code, out, _ = invoke(["poly", "dual", "--file", str(src), "--out", str(dual_path)])
        assert code == 0
        census = validate_map(load_map(dual_path))
        assert (census.V, census.E, census.F) == (6, 12, 8)

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"darts": 2, "alpha": [0, 1], "sigma": [0, 1]}')
        code, _, err = invoke(["poly", "graph", "--file", str(bad)])
        assert code == 2
        assert "fixed-dart" in err


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
        assert by_name["jones-lower"]["value"] == "7.327725"
        assert by_name["two-bridge-upper"]["best"] is True
        assert doc["warnings"] == []

    def test_torus_link_warning(self):
        code, out, _ = invoke(["link", "two-bridge", "--fraction", "7/6"])
        assert code == 0
        assert "torus link" in out

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
        assert saved["white_census"] == {"3": 2, "4": 3}

    def test_diagram_file_input(self, tmp_path):
        diagram_path = tmp_path / "diagram.json"
        code, _, _ = invoke(
            ["link", "augment", "--fraction", "13/5", "--out-diagram", str(diagram_path)]
        )
        assert code == 0
        code, out, _ = invoke(["--format", "json", "link", "augment", "--file", str(diagram_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["census"]["V"] == 12  # 13/5 = [2,1,1,2] has t=4 twists

    def test_usage_error(self):
        code, _, _ = invoke(["link", "augment"])
        assert code == 2


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
    # recorded; regenerate with `python tests/test_cli.py`
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


_LINK_MODULES = {"links", "twists", "maps", "lobachevsky"}
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
    "link two-bridge": _LINK_MODULES | {"augmented"},
    "link augment": _LINK_MODULES | {"augmented"},
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
    dataclasses for the augmented polyhedron, json to read or write a file
    or to print JSON."""
    loaded = set()
    if _command(argv) in ("link two-bridge", "link augment"):
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


def test_flag_fields_are_the_hypothesis_flags():
    # the parser spells out the switches so that building it imports no `links`
    assert _FLAG_FIELDS == HypothesisFlags._fields


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
