"""`tools/bench_pairs.py`: its summary on synthetic run records, and one
run against fake trees whose benchmark script prints canned lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = [
    {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def record(side, pair, campaign_s, trials_per_s, workload="w", correct=True):
    metrics = {"campaign_s": {"value": campaign_s, "unit": "s"},
               "trials_per_s": {"value": trials_per_s, "unit": "1/s"}}
    return {"workload": workload, "pair": pair, "seed": pair, "side": side, "correct": correct,
            "result": {"correct": correct, "metrics": metrics}}


def test_medians_quartiles_pairs_won_and_moves():
    runs = []
    for pair, (b, h) in enumerate([(10.0, 9.0), (12.0, 11.0), (11.0, 11.5), (13.0, 10.0), (14.0, 12.0)], 1):
        runs += [record("base", pair, b, 100.0 / b), record("head", pair, h, 100.0 / h)]
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert entry["failed_runs"] == {"base": 0, "head": 0}
    lower = entry["campaign_s"]
    assert (lower["base_median"], lower["head_median"]) == (12.0, 11.0)
    assert lower["base_quartiles"] == [11.0, 13.0]
    assert (lower["pairs"], lower["head_won"]) == (5, 4)
    assert lower["move"] == pytest.approx(-1.0 / 12.0) and lower["bound"] == 0.2
    higher = entry["trials_per_s"]
    assert higher["head_won"] == 4
    # a higher-is-better metric that rises moves for the better, negatively
    assert higher["move"] == pytest.approx(1.0 - (100.0 / 11.0) / (100.0 / 12.0))
    assert higher["move"] < 0


def test_failed_runs_are_counted_and_left_out():
    runs = [record("base", 1, 10.0, 10.0), record("head", 1, 1.0, 100.0, correct=False),
            record("base", 2, 10.0, 10.0), record("head", 2, 20.0, 5.0)]
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert entry["failed_runs"] == {"base": 0, "head": 1}
    m = entry["campaign_s"]
    assert (m["head_median"], m["pairs"], m["head_won"]) == (20.0, 1, 0)
    assert m["move"] == pytest.approx(1.0)
    assert m["base_quartiles"] == [10.0, 10.0]
    # a higher-is-better metric that falls moves for the worse, positively
    assert entry["trials_per_s"]["move"] == pytest.approx(0.5)


def test_a_side_without_correct_runs_keeps_the_metric_with_null_medians():
    runs = [record("base", 1, 10.0, 10.0), record("head", 1, 9.0, 11.0, correct=False),
            record("base", 2, 12.0, 8.0), record("head", 2, 8.0, 12.0, correct=False)]
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert entry["failed_runs"] == {"base": 0, "head": 2}
    for name in ("campaign_s", "trials_per_s"):
        m = entry[name]
        assert m["head_median"] is None and m["move"] is None
        assert (m["pairs"], m["head_won"], m["bound"]) == (0, 0, 0.2)
    assert entry["campaign_s"]["base_median"] == 11.0
    assert entry["campaign_s"]["base_quartiles"] == [10.5, 11.5]
    # and with every base run failed, the base side's medians and quartiles are null
    flipped = [dict(r, side="head" if r["side"] == "base" else "base") for r in runs]
    m = bench_pairs.summarize(flipped, METRICS)["w"]["campaign_s"]
    assert (m["base_median"], m["base_quartiles"], m["head_median"], m["move"]) == (None, None, 11.0, None)


# the benchmark script of a fake tree: its result reads the `speed` of the
# tree that runs it and the seed; a tree with a `fail` file reports a failed
# campaign
FAKE_RUN = """import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
speed = float((root / "src" / "speed").read_text())
correct = not (root / "src" / "fail").exists()
print("campaign 1: ...")
print("fingerprint " + json.dumps({"seed": seed, "workload": args[args.index("--workload") + 1],
                                  "numpy": "9.9", "blas_threads": 3}))
print(json.dumps({"correct": correct, "attempted": 2, "failed": int(not correct), "metrics": {
    "campaign_s": {"value": seed / speed, "unit": "s"},
    "trials_per_s": {"value": seed * speed, "unit": "1/s"}}}))
sys.exit(0 if correct else 1)
"""


def fake_tree(dest, speed, fail=False, script=FAKE_RUN):
    (dest / "src").mkdir()
    (dest / "src" / "speed").write_text(str(speed))
    if fail:
        (dest / "src" / "fail").write_text("")
    (dest / "perfbench").mkdir()
    (dest / "perfbench" / "run.py").write_text(script)
    bench = {"command": ["python3", "perfbench/run.py"], "run_seconds": 18,
             "workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": METRICS}
    (dest / "BENCHMARK.json").write_text(json.dumps(bench))


def pairs(monkeypatch, tmp_path, base_fail=False):
    def export(rev, dest):
        if rev == "base-commit":
            # its own script is never run: the head side's replaces it
            fake_tree(dest, 2.0, base_fail, script="raise SystemExit('the base script ran')\n")
        else:
            fake_tree(dest, 4.0)

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda rev: f"{rev}-commit")
    out = tmp_path / "BENCH.json"
    status = bench_pairs.main(["--base", "base", "--head", "head", "--pairs", "3", "--out", str(out)])
    return status, json.loads(out.read_text())


def test_alternating_pairs_against_fake_trees(monkeypatch, tmp_path, capsys):
    status, report = pairs(monkeypatch, tmp_path)
    assert status == 0
    assert report["base"] == {"rev": "base", "commit": "base-commit"}
    assert report["head"] == {"rev": "head", "commit": "head-commit"}
    # the software as the runs' fingerprints report it, not as this process has it
    assert report["machine"]["numpy"] == "9.9" and report["machine"]["blas_threads"] == 3
    assert report["machine"]["python"] is None and {"cpu_model", "cpu_count"} <= set(report["machine"])
    assert report["pairs"] == 3 and report["seconds"] == 18
    # the base side first in odd pairs, the head side first in even ones,
    # each workload's two runs back to back, with the pair's seed
    order = [(r["pair"], r["workload"], r["side"], r["seed"]) for r in report["runs"]]
    assert order == [(p, w, s, p) for p in (1, 2, 3) for w in ("a", "b")
                     for s in (("base", "head") if p % 2 else ("head", "base"))]
    assert all(r["correct"] and r["fingerprint"]["seed"] == r["seed"] for r in report["runs"])
    m = report["summary"]["b"]["campaign_s"]
    assert (m["base_median"], m["head_median"], m["head_won"]) == (1.0, 0.5, 3)
    assert m["move"] == pytest.approx(-0.5)
    assert "b                campaign_s    base 1 head 0.5 move -50.00% (bound 20%) head won 3/3" \
        in capsys.readouterr().out


def test_failed_run_exits_1_and_is_recorded(monkeypatch, tmp_path, capsys):
    status, report = pairs(monkeypatch, tmp_path, base_fail=True)
    assert status == 1
    base_runs = [r for r in report["runs"] if r["side"] == "base"]
    assert base_runs and not any(r["correct"] for r in base_runs)
    assert all(r["exit"] == 1 and r["result"]["failed"] == 1 for r in base_runs)
    assert report["summary"]["a"]["failed_runs"] == {"base": 3, "head": 0}
    m = report["summary"]["a"]["campaign_s"]
    assert (m["base_median"], m["head_median"], m["move"]) == (None, 0.5, None)
    assert "a                campaign_s    no correct runs on base" in capsys.readouterr().out
