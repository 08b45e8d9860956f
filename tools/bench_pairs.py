#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and write a
`BENCH_<pr>.json` record of every run and its summary.

    python3 tools/bench_pairs.py --base REV [--head REV] [--workloads W,...]
        [--pairs N] --out BENCH_<pr>.json

Run from the root of a checkout; REV is usually the parent of the change
under test, and the head revision defaults to HEAD. Both revisions are
exported with `git archive` (see `csv_drift.export`) into directories whose
paths have equal length, since `peak_rss_mb` follows the checkout path. The
head side's `perfbench/` and `BENCHMARK.json` are copied into both exports,
so that one benchmark script measures both sides' `src`; the repository's
own files are untouched. Pair i runs every workload with seed i on both sides, the
base side first in odd pairs and the head side first in even ones, each as
`BENCHMARK.json`'s command with `--workload W --seed i --seconds S --trace
0`, S being its `run_seconds`, whose stdout ends with the script's
fingerprint line and its JSON result. Ten pairs, the default, is the fewest
that can support a claimed gain.

The file holds both revisions, the machine (CPU model and count, and the
Python, numpy, BLAS and BLAS thread count that the runs' fingerprints
report), every run's raw record and, per
workload and end-to-end metric of `BENCHMARK.json`: both sides' medians
over their correct runs, the base side's quartiles, the pairs the head side
won and its median's move against the metric's bound, where a positive
move is a change for the worse. The tool gives no verdict on a gain. Exit
status 1 means some run failed a check: its script exited nonzero, printed
no result or reported it not correct; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from csv_drift import ROOT, export, run_python

SIDES = ("base", "head")    # equal-length names, so both exports' paths are too


def commit_of(rev: str) -> str:
    """The commit id `rev` names in this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


# what the benchmark script's fingerprint says of the software it ran on
FINGERPRINT_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads")


def machine(runs: list[dict]) -> dict:
    """The CPU, and each of `FINGERPRINT_KEYS` as the runs' fingerprints
    give it: one value (None where none gives it), or the list of values
    where runs differ."""
    try:
        models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
    except OSError:
        models = []
    out = {
        "cpu_model": models[0] if models else platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    for key in FINGERPRINT_KEYS:
        values = list(dict.fromkeys(r["fingerprint"].get(key) for r in runs if r["fingerprint"]))
        out[key] = values[0] if len(values) == 1 else values
    return out


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One run of the benchmark script from `tree`: its exit status,
    fingerprint and result (None where it printed none), and whether it
    passed its checks."""
    proc = run_python(tree, *command[1:], "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0", check=False)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    record = {"exit": proc.returncode, "fingerprint": None, "result": None}
    try:
        record["result"] = json.loads(lines[-1])
        fp = lines[-2]
        if fp.startswith("fingerprint "):
            record["fingerprint"] = json.loads(fp.removeprefix("fingerprint "))
    except (IndexError, ValueError):
        pass
    result = record["result"]
    record["correct"] = bool(proc.returncode == 0 and isinstance(result, dict) and result.get("correct"))
    if not record["correct"]:
        record["stderr_tail"] = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
    return record


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' medians over their
    correct runs, the base side's quartiles, the pairs the head side won
    (both runs correct, the head strictly better) and the move of the head
    median against the base median, relative to it and positive where
    worse, with the metric's bound. A side with no correct run of a metric
    gives it null medians (and quartiles, for the base side) and a null
    move. A workload also counts each side's failed runs."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"failed_runs": {side: sum(not r["correct"] for r in mine if r["side"] == side)
                                 for side in SIDES}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {} for side in SIDES}
            for r in mine:
                if r["correct"] and name in r["result"]["metrics"]:
                    values[r["side"]][r["pair"]] = r["result"]["metrics"][name]["value"]
            base, head = (list(values[side].values()) for side in SIDES)
            base_med, head_med = (statistics.median(v) if v else None for v in (base, head))
            won = sum((h < values["base"][p]) if lower else (h > values["base"][p])
                      for p, h in values["head"].items() if p in values["base"])
            move = None
            if base and head:
                move = (head_med - base_med) / base_med if base_med else 0.0
                move = move if lower else -move
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "base_median": base_med, "head_median": head_med,
                "base_quartiles": _quartiles(sorted(base)) if base else None,
                "pairs": len(set(values["base"]) & set(values["head"])), "head_won": won,
                "move": move, "bound": metric["bound"],
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--head", default="HEAD", help="git revision of the head side (default HEAD)")
    ap.add_argument("--workloads", help="comma list of workloads (default: all of BENCHMARK.json's)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    revs = {"base": args.base, "head": args.head}
    commits = {side: commit_of(rev) for side, rev in revs.items()}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            export(commits[side], tree)
        head = trees["head"]
        bench = json.loads((head / "BENCHMARK.json").read_text())
        shutil.rmtree(trees["base"] / "perfbench", ignore_errors=True)
        shutil.copytree(head / "perfbench", trees["base"] / "perfbench")
        shutil.copy2(head / "BENCHMARK.json", trees["base"] / "BENCHMARK.json")
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        print(f"base {args.base} ({commits['base']}) vs head {args.head} ({commits['head']}), "
              f"{args.pairs} pairs of {seconds:g} s runs")
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    record = {"workload": workload, "pair": pair, "seed": pair, "side": side,
                              **run_once(trees[side], bench["command"], workload, pair, seconds)}
                    runs.append(record)
                    print(f"pair {pair} {workload} {side}: {'correct' if record['correct'] else 'FAILED'}")
    summary = summarize(runs, bench["end_to_end"])
    report = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "machine": machine(runs),
        "pairs": args.pairs, "seconds": seconds, "workloads": workloads,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in summary.items():
        for name, m in entry.items():
            if name == "failed_runs":
                continue
            missing = [side for side in SIDES if m[f"{side}_median"] is None]
            if missing:
                print(f"{workload:16s} {name:13s} no correct runs on {' and '.join(missing)}")
            else:
                print(f"{workload:16s} {name:13s} base {m['base_median']:.6g} head {m['head_median']:.6g} "
                      f"move {m['move']:+.2%} (bound {m['bound']:.0%}) head won {m['head_won']}/{m['pairs']}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
