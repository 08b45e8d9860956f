#!/usr/bin/env python3
"""irsce benchmark: time `irsce run` campaigns on one workload and check them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every campaign is a fresh interpreter
(`campaign.py`) that calls `irsce.cli.main(["run", ...])` on the workload's
config with `--seed N`, so the inputs follow from the seed alone. Campaigns
repeat until `--seconds` have passed (at least MIN_CAMPAIGNS of them) and
the end-to-end metrics are their medians. With `--trace 1` each pass runs one
untraced and one traced campaign and reports per-layer metrics instead.

Every campaign's CSV is checked (see `check_csv`) and compared byte for byte
with the run's other campaigns; `trial-loop-pool` is also compared with a
one-worker campaign of the same config. A campaign that exits nonzero, times
out or fails a check counts as failed. The last stdout line is the JSON
result; the line before it is the machine fingerprint.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CAMPAIGN = HERE / "campaign.py"

MIN_CAMPAIGNS = 2
RUN_LIMIT_S = 170.0          # hard stop for one run, under the 180 s budget
BLAS_THREADS = 1             # workers x BLAS threads <= nproc on every workload
E1_RTOL = 0.25               # |e1/e1_pred - 1|; sd is about 4% on small-dims
E2_CI_MULT = 4.0             # |e2 - e2_pred| <= 4 * e2_ci
ROUNDOFF = 1e-16             # noiseless e1, e2, e3 ceiling


@dataclass(frozen=True)
class Workload:
    config: str
    schemes: tuple[str, ...]
    threads: int
    trials: int


WORKLOADS = {
    # The README example command (default.cfg, --trials 200). build_context,
    # with K Monte-Carlo Gram estimates for `benchmark`, dominates, so a
    # closed-form Gram shows here.
    "default-ctx": Workload("default-ctx.cfg", ("proposed-lmmse", "benchmark"), 1, 200),
    # prior_draws at its minimum: the per-trial loop dominates, and
    # phase2-random redraws its reflections every trial.
    "trial-loop": Workload("trial-loop.cfg", ("proposed-lmmse", "phase2-random"), 1, 100),
    # tiny matrices: per-call Python overhead dominates, and M < N sends
    # the noiseless scheme through the two-stage SVD path.
    "small-dims": Workload("small-dims.cfg", ("proposed-noiseless", "proposed-lmmse"), 1, 100),
    # trial-loop through the process pool: context pickling and worker
    # start-up; its CSV must equal trial-loop's.
    "trial-loop-pool": Workload("trial-loop.cfg", ("proposed-lmmse", "phase2-random"), 2, 100),
}

SCHEMES_MEASURED = ("proposed-lmmse", "benchmark", "phase2-random", "proposed-noiseless")

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "estimate.gram_s": "s",
    "estimate.gram_calls": "count",
    "estimate.gram_gflop_computed": "GFLOP",
    "estimate.lambda_priors_s": "s",
    "estimate.psi_ms": "ms",
    **{f"harness.context_s.{s}": "s" for s in SCHEMES_MEASURED},
    "estimate.simulate_received_ms": "ms",
    **{f"estimate.simulate_received_ms.phase{p}": "ms" for p in (1, 2, 3)},
    **{f"estimate.simulate_received_gflop_computed.phase{p}": "GFLOP" for p in (1, 2, 3)},
    "estimate.phase1_ms": "ms",
    "estimate.cancel_direct_ms": "ms",
    "estimate.phase2_ms": "ms",
    "estimate.phase3_ms": "ms",
    "estimate.phase3_pred_ms": "ms",
    "estimate.phase3_solves_per_trial": "count",
    "estimate.phase3_noiseless_ms": "ms",
    "model.draw_channels_ms": "ms",
    "harness.substream_ms": "ms",
    "schedule.context_build_ms": "ms",
    "schedule.phase2_random_ms": "ms",
    "schedule.phase2_schedule_ms": "ms",
    "model.coloring_root_hit_ratio": "ratio",
    "metrics.aggregate_ms": "ms",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p99": "ms",
    "harness.trials_traced": "count",
    "harness.self_s": "s",
    "harness.context_pickle_bytes": "bytes",
    "harness.pool_speedup": "ratio",
    "harness.pool_overhead_s": "s",
    "config.load_ms": "ms",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def check_csv(data: bytes, schemes: tuple[str, ...], trials: int) -> list[str]:
    """Output checks on one campaign CSV; returns the problems found.

    Noiseless rows recover every channel to round-off. Noisy rows have e1
    close to its closed form, and e2 within a few confidence half-widths of
    its prediction. e3 is not compared with e3_pred: the scaling factors are
    heavy-tailed and the two legitimately differ by orders of magnitude.
    """
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if [r["scheme"] for r in rows] != list(schemes):
        return [f"rows {[r['scheme'] for r in rows]} != schemes {list(schemes)}"]
    problems = []
    for r in rows:
        name = r["scheme"]
        if int(r["trials"]) != trials:
            problems.append(f"{name}: trials {r['trials']} != {trials}")
        e1, e1_pred = float(r["e1"]), float(r["e1_pred"])
        e2, e2_pred, e2_ci = float(r["e2"]), float(r["e2_pred"]), float(r["e2_ci"])
        if name == "proposed-noiseless":
            worst = max(e1, e2, float(r["e3"]))
            if not worst <= ROUNDOFF:
                problems.append(f"{name}: max(e1, e2, e3) = {worst:g} above round-off")
            continue
        if not abs(e1 / e1_pred - 1.0) <= E1_RTOL:
            problems.append(f"{name}: e1 {e1:g} vs e1_pred {e1_pred:g}")
        if not abs(e2 - e2_pred) <= E2_CI_MULT * e2_ci:
            problems.append(f"{name}: e2 {e2:g} vs e2_pred {e2_pred:g} (ci {e2_ci:g})")
    return problems


def fingerprint(workload: Workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "blas_threads": BLAS_THREADS,
        "workers": workload.threads,
        "machine": platform.machine(),
    }


class Bench:
    """One benchmark run: spawns campaigns into a scratch directory."""

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool, workdir: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.config = HERE / "configs" / self.workload.config
        self.trials = self.workload.trials
        if tiny:
            self.config = workdir / self.workload.config
            text = (HERE / "configs" / self.workload.config).read_text()
            self.config.write_text(text + "\nprior_draws = 1000\n")
            self.trials = 8
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def campaign(self, threads: int, trace: bool = False) -> dict | None:
        """Run one campaign; returns its result with the CSV bytes, or None
        (counted as failed) when it does not finish cleanly."""
        self.attempted += 1
        i = self.attempted
        out, res = self.workdir / f"c{i}.csv", self.workdir / f"c{i}.json"
        cmd = [sys.executable, str(CAMPAIGN), "--src", str(SRC), "--config", str(self.config),
               "--schemes", ",".join(self.workload.schemes), "--threads", str(threads),
               "--trials", str(self.trials), "--seed", str(self.seed),
               "--out", str(out), "--result", str(res)]
        if trace:
            cmd.append("--trace")
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=self.env,
                                cwd=self.workdir, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        timed_out = False
        try:
            _, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            _stop_group(proc)
        if timed_out:
            return self._fail(i, "timed out")
        if proc.returncode != 0 or not res.is_file() or not out.is_file():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return self._fail(i, f"exit {proc.returncode}: {' | '.join(tail)}")
        result = json.loads(res.read_text())
        _to_reference_speed(result)
        result["csv"] = out.read_bytes()
        result["index"] = i
        result["threads"] = threads
        problems = check_csv(result["csv"], self.workload.schemes, self.trials)
        if problems:
            return self._fail(i, "; ".join(problems))
        print(f"campaign {i}: threads={threads} trace={int(trace)} "
              f"speed_factor={result['speed_factor']:.4f} wall_campaign_s={result['wall_campaign_s']:.4f} "
              f"campaign_s={result['campaign_s']:.4f} setup_s={result['setup_s']:.4f}")
        return result

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        print(f"campaign {i}: FAILED: {why}")
        return None

    def same_csv(self, ref: dict | None, other: dict | None, what: str) -> None:
        """Count `other` as failed when its CSV differs from `ref`'s."""
        if ref is not None and other is not None and other["csv"] != ref["csv"]:
            self._fail(other["index"], f"CSV differs from {what}")
            other["csv_mismatch"] = True

    def time_left(self) -> bool:
        return time.perf_counter() - self.started < self.seconds


def _to_reference_speed(result: dict) -> None:
    """Scale the times of a campaign result to the reference machine speed
    with its probe's factors (see campaign.SpeedProbe): set-up by the factor
    sampled inside `build_context`, the rest of the campaign by the one
    sampled outside it, CPU time like the campaign, and the rest by the
    campaign's overall factor."""
    f, f_setup, f_loop = result["speed_factor"], result["setup_factor"], result["loop_factor"]
    wall, setup = result["campaign_s"], result["setup_s"]
    result["wall_campaign_s"] = wall
    result["setup_s"] = setup * f_setup
    result["campaign_s"] = result["setup_s"] + (wall - setup) * f_loop
    result["context_s"] = {k: v * f_setup for k, v in result["context_s"].items()}
    result["cpu_s"] *= result["campaign_s"] / wall
    result["startup_s"] *= f
    for key in result["layer"]:
        if PER_LAYER_UNITS.get(key) in ("s", "ms"):
            result["layer"][key] *= f


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a campaign's process group (pool workers
    included), reap the campaign process and wait until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    try:
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass
    proc.stdout.close()
    proc.stderr.close()


def loop_s(c: dict) -> float:
    return c["campaign_s"] - c["setup_s"]


def end_to_end(bench: Bench) -> dict[str, float]:
    wl = bench.workload
    ref = bench.campaign(threads=1) if wl.threads > 1 else None
    done, n = [], 0
    while (n < MIN_CAMPAIGNS or bench.time_left()) and bench.remaining() > 0:
        n += 1
        c = bench.campaign(wl.threads)
        # done[0] already matched ref, so one comparison covers both
        bench.same_csv(done[0] if done else ref, c, "the run's reference CSV")
        if c is not None and not c.get("csv_mismatch"):
            done.append(c)
    if not done:
        return {}
    n_trials = bench.trials * len(wl.schemes)
    med = statistics.median
    return {
        "campaign_s": med(c["campaign_s"] for c in done),
        "setup_s": med(c["setup_s"] for c in done),
        "trials_per_s": med(n_trials / loop_s(c) for c in done),
        "cpu_s": med(c["cpu_s"] for c in done),
        # main process peak plus each worker at the largest worker's peak
        "peak_rss_mb": med((c["rss_self_kib"] + c["threads"] * c["rss_worker_kib"]) / 1024.0
                           for c in done),
    }


def per_layer(bench: Bench) -> dict[str, float]:
    """Traced passes: an untraced campaign at the workload's worker count,
    for pooled workloads an untraced one-worker campaign, then a traced
    one-worker campaign. Per-layer values are medians over passes."""
    wl = bench.workload
    passes, startups = [], []
    n = 0
    while (n < 1 or bench.time_left()) and bench.remaining() > 0:
        n += 1
        base = bench.campaign(wl.threads)
        single = bench.campaign(threads=1) if wl.threads > 1 else base
        traced = bench.campaign(threads=1, trace=True)
        bench.same_csv(base, single, "the pooled campaign")
        bench.same_csv(base, traced, "the untraced campaign")
        runs = [c for c in (base, single, traced) if c is not None]
        startups += [c["startup_s"] for c in runs]
        if base is None or single is None or traced is None or len(
                {c["csv"] for c in runs}) != 1:
            continue
        layer = dict(traced["layer"])
        for scheme in SCHEMES_MEASURED:
            layer[f"harness.context_s.{scheme}"] = traced["context_s"].get(scheme, 0.0)
        layer["trace.overhead_frac"] = traced["campaign_s"] / single["campaign_s"] - 1.0
        if wl.threads > 1:
            layer["harness.pool_speedup"] = loop_s(single) / loop_s(base)
            layer["harness.pool_overhead_s"] = loop_s(base) - loop_s(single) / wl.threads
        else:
            layer["harness.pool_speedup"] = 1.0
            layer["harness.pool_overhead_s"] = 0.0
        passes.append(layer)
    if not passes:
        return {}
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    out["cli.startup_s"] = statistics.median(startups)
    out["failed_frac"] = bench.failed / bench.attempted
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="8 trials and 1000 prior draws, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    # a terminated run still unwinds, so its campaign group is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "irsce" / "cli.py").is_file():
        print(f"error: no irsce sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, args.tiny, workdir)
        measured = per_layer(bench) if args.trace else end_to_end(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured}
    correct = bench.failed == 0 and len(metrics) == len(units)
    print("fingerprint " + json.dumps(fingerprint(bench.workload), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
