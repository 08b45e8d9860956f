"""Self-tests of the benchmark itself (not of irsce).

    python3 -m pytest -q perfbench

Each workload runs at a tiny length (8 trials, 1000 prior draws, 1 s) with
and without tracing. The result must list exactly the metrics named in
BENCHMARK.json, each with its unit, and pass every output check, which
includes the traced campaign's CSV being byte-identical to the untraced one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("fingerprint ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_tracer_restores_and_keeps_csv(tmp_path):
    """A traced campaign writes the same bytes as an untraced one and puts
    every wrapped attribute back."""
    bench = run.Bench("small-dims", 11, 0.0, True, tmp_path)
    plain = bench.campaign(threads=1)
    traced = bench.campaign(threads=1, trace=True)
    assert plain is not None and traced is not None
    assert traced["restored"] is True
    assert traced["csv"] == plain["csv"]
    assert traced["layer"]["harness.trials_traced"] == 2 * 8


def test_check_csv_flags_bad_rows():
    header = ",".join(["scheme", "trials", "e1", "e1_pred", "e2", "e2_pred", "e2_ci", "e3"])
    good = f"{header}\nproposed-lmmse,8,1.0e-5,1.0e-5,2e-7,2.1e-7,1e-8,0.1\n".encode()
    assert run.check_csv(good, ("proposed-lmmse",), 8) == []
    bad_e1 = good.replace(b"1.0e-5,1.0e-5", b"2.0e-5,1.0e-5")
    assert run.check_csv(bad_e1, ("proposed-lmmse",), 8)
    noisy = f"{header}\nproposed-noiseless,8,1e-9,0,0,0,0,0\n".encode()
    assert run.check_csv(noisy, ("proposed-noiseless",), 8)


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("small-dims", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
