"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, seconds: int = 1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, env, info, result = out.stdout.splitlines()
    return json.loads(result), json.loads(info[len("info "):]), json.loads(env[len("env "):])


def test_spec_names_the_workloads():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    result, info, env = bench(workload, 7, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["problems"] == []
    assert env["seed"] == 7 and env["nproc"] >= 1 and len(env["loadavg_end"]) == 3
    if not trace:
        assert result["metrics"]["ok_ops_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_digest_is_the_same_traced_and_untraced(workload):
    # cli-readme runs subprocesses untraced and cli.run in process traced
    assert bench(workload, 7, 0)[1]["digest"] == bench(workload, 7, 1)[1]["digest"]


def pass_digest(vb, workload: str, seed: int) -> str:
    wl = WORKLOADS[workload](vb, seed, str(ROOT))
    items = wl.generate()
    checker = run.Checker(wl, items)
    run.complete_pass(wl, items, checker)
    assert checker.failed == 0, checker.problems
    return checker.digest()


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_inputs(workload):
    vb = run.load_library()
    cls = WORKLOADS[workload]
    first, again, other = (repr(cls(vb, seed, str(ROOT)).generate()) for seed in (5, 5, 6))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["poly-skeletons", "link-small", "link-large"])
def test_same_seed_same_digest(workload):
    vb = run.load_library()
    assert pass_digest(vb, workload, 5) == pass_digest(vb, workload, 5)
    assert pass_digest(vb, workload, 5) != pass_digest(vb, workload, 6)


def run_main(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_wrong_3_connectivity_answer_is_counted(monkeypatch, capsys):
    vb = run.load_library()
    # every glued skeleton has a 2-vertex cut and must be refused
    monkeypatch.setattr(vb.polyhedra, "is_three_connected", lambda m: True)
    result = run_main(capsys, "poly-skeletons")
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_ops_frac"]["value"] < 1.0


def test_wrong_white_census_is_counted(monkeypatch, capsys):
    vb = run.load_library()
    augment = vb.augmented.augment

    def off_by_one(diagram):
        poly = augment(diagram)
        census = dict(poly.white_census)
        census[3] = census.get(3, 0) + 1
        return dataclasses.replace(poly, white_census=census)

    monkeypatch.setattr(vb.augmented, "augment", off_by_one)
    result = run_main(capsys, "link-large")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_missing_sources_fail_without_a_result():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        (Path(bare) / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            (Path(bare) / "perfbench" / path.name).write_text(path.read_text())
        (Path(bare) / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "link-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert out.returncode != 0
    assert out.stdout == ""


def test_times_are_scaled_by_the_probes_around_them():
    speed = run.HostSpeed()
    speed.probes = [run.PROBE_REF_S, 3 * run.PROBE_REF_S]  # mean: twice the reference
    assert speed.scale(0) == pytest.approx(0.5)
    # the first mark closes the earlier operations with a probe, then re-picks
    assert speed.mark() == 3 and len(speed.probes) == 4
    assert speed.scale(2) > 0
