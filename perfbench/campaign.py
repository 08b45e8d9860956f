"""One `irsce run` campaign in a fresh interpreter, timed from inside.

    python3 campaign.py --src SRC --config CFG --schemes A,B --threads T \
        --trials N --seed S --out CSV --result JSON --spawned-at CLOCK [--trace]

`--spawned-at` is the parent's `time.perf_counter()` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the difference to the moment `irsce.cli` is imported is the
interpreter start-up plus import time. The campaign itself is a call to
`irsce.cli.main(["run", ...])`, timed until it returns (after the CSV is
written). Set-up time is taken from the campaign's own `build_context`
calls through one thin wrapper, so it is not paid twice. With `--trace` the
tracer also wraps every layer boundary and its summary is added to the
result. Every wrapped attribute is restored before the result is written.

All times in the result are raw wall or CPU seconds; the `*_factor` fields
say how to scale them to the reference machine speed (see SpeedProbe).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import signal
import sys
import time

# Mean time of one probe kernel on an idle 2-vCPU Intel Xeon at 2.1 GHz,
# the machine the benchmark was defined on.
PROBE_REF_S = 6.0e-4
PROBE_PERIOD_S = 0.1
PROBE_BRACKET = 20
PROBE_MIN_SAMPLES = 10


class SpeedProbe:
    """Samples how fast this machine runs a fixed kernel, before, during and
    after a campaign.

    On a shared machine the speed of a CPU-bound process drifts by tens of
    percent within seconds, so raw campaign times do not compare between
    runs. The probe times a small fixed numpy/Python kernel PROBE_BRACKET
    times before and after the campaign and, from a SIGALRM handler, every
    PROBE_PERIOD_S seconds during it. Each sample is labelled with the
    current segment ("setup" inside `build_context`, else "loop").
    `factor(segment)` is PROBE_REF_S over the mean probe time in that
    segment (all samples when the segment has fewer than PROBE_MIN_SAMPLES);
    a time multiplied by it is the time at the reference speed. Time spent
    in the handler (`spent`) is taken out of the campaign's times.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(0))
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._np = np
        self._gram = a.conj().T @ a + 12.0 * np.eye(12)
        self._rhs = a[:, :3].copy()
        self.samples: list[tuple[str, float]] = []
        self.segment = "bracket"
        self.spent = 0.0

    def _kernel(self) -> None:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(40):
            x = np.linalg.solve(self._gram, self._rhs)
            float(np.sum(np.abs(self._gram @ x) ** 2))
        self.samples.append((self.segment, time.perf_counter() - t0))

    def bracket(self) -> None:
        self.segment = "bracket"
        for _ in range(PROBE_BRACKET):
            self._kernel()

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.segment = "loop"
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, segment: str | None = None) -> float:
        times = [dt for seg, dt in self.samples if seg == segment]
        if len(times) < PROBE_MIN_SAMPLES:
            times = [dt for _, dt in self.samples]
        return PROBE_REF_S * len(times) / sum(times)


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _thin_setup_wrapper(harness, setup: list, probe: SpeedProbe):
    original = harness.build_context

    def build_context(config, scheme, *args, **kwargs):
        probe.segment = "setup"
        t0, spent0 = time.perf_counter(), probe.spent
        try:
            return original(config, scheme, *args, **kwargs)
        finally:
            setup.append((scheme, time.perf_counter() - t0 - (probe.spent - spent0)))
            probe.segment = "loop"

    harness.build_context = build_context
    return original


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--schemes", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import irsce.cli
    startup_s = time.perf_counter() - args.spawned_at
    import irsce.harness as harness
    import irsce.model as model

    if not os.path.realpath(irsce.cli.__file__).startswith(os.path.realpath(args.src) + os.sep):
        print(f"irsce was imported from {irsce.cli.__file__}, not from {args.src}", file=sys.stderr)
        return 3

    probe = SpeedProbe()
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize
        tracer = Tracer()
        tracer.install(harness, irsce.cli)
    setup: list = []
    unwrapped_build = _thin_setup_wrapper(harness, setup, probe)

    cli_args = ["run", "--config", args.config, "--out", args.out, "--scheme", args.schemes,
                "--threads", str(args.threads), "--trials", str(args.trials),
                "--seed", str(args.seed)]
    probe.bracket()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    probe.start()
    try:
        code = irsce.cli.main(cli_args)
    finally:
        probe.stop()
    campaign_s = time.perf_counter() - t0 - probe.spent
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    probe.bracket()

    harness.build_context = unwrapped_build
    restored = harness.build_context is unwrapped_build
    layer = {}
    if tracer is not None:
        restored = tracer.restore() and restored
        layer = summarize(tracer)
        layer["harness.context_pickle_bytes"] = float(
            sum(len(pickle.dumps(ctx)) for _, ctx in tracer.contexts))

    cached = getattr(model, "_coloring_root_cached", model.coloring_root)
    if hasattr(cached, "cache_info"):
        info = cached.cache_info()
        lookups = info.hits + info.misses
        layer["model.coloring_root_hit_ratio"] = info.hits / lookups if lookups else 0.0

    result = {
        "restored": restored,
        "startup_s": startup_s,
        "campaign_s": campaign_s,
        "setup_s": sum(dt for _, dt in setup),
        "context_s": {scheme: dt for scheme, dt in setup},
        "cpu_s": (_cpu_s(self1) - _cpu_s(self0)) + (_cpu_s(kids1) - _cpu_s(kids0)) - probe.spent,
        # ru_maxrss is in KiB; for RUSAGE_CHILDREN it is the largest worker's peak.
        "rss_self_kib": self1.ru_maxrss,
        "rss_worker_kib": kids1.ru_maxrss,
        "speed_factor": probe.factor(),
        "setup_factor": probe.factor("setup"),
        "loop_factor": probe.factor("loop"),
        "layer": layer,
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0 if code == 0 and restored else 1


if __name__ == "__main__":
    sys.exit(main())
