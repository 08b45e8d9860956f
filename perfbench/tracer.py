"""In-memory call tracer for one irsce campaign, installed from outside the package.

`Tracer.install` replaces the public functions that `irsce.harness` and
`irsce.cli` look up in their own namespaces (their imports from `config`,
`model`, `schedule`, `estimate` and `metrics`, and the harness's own public
functions) with wrappers that record one span per call. Spans stay in memory
until the campaign ends; `Tracer.restore` puts the original attributes back
and `summarize` turns the spans into per-layer metrics.

Trial spans are keyed by the trial index the harness passes to `substream`:
a trial opens at the first substream call with a new (scheme, rep, trial)
path, and closes at the next trial's first call, at the first `metrics` call
or when `run_scheme` returns. Calls made inside a trial are assigned to the
protocol phase given by how many `simulate_received` calls the trial has made.

Spans recorded in pool worker processes stay in the workers, so traced
campaigns run with one worker.
"""

from __future__ import annotations

import inspect
import statistics
import time
from functools import wraps

LAYERS = ("cli", "config", "harness", "schedule", "model", "estimate", "metrics")

# Estimator entry points; their phase comes from the trial's phase counter,
# so the benchmark scheme's per-user Phase-II-style solves in Phase III count
# as Phase-III estimation.
ESTIMATORS = frozenset({
    "estimate.phase1_mmse", "estimate.phase1_recover_noiseless",
    "estimate.phase2_lmmse", "estimate.phase2_recover_noiseless",
    "estimate.phase3_lmmse_all_slots", "estimate.phase3_recover_noiseless",
})


class Span:
    __slots__ = ("name", "layer", "parent", "trial", "phase", "info", "t0", "t1", "child_s")

    def __init__(self, name, parent, trial, phase, info):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.trial = trial
        self.phase = phase
        self.info = info
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _gram_flops(args, kwargs) -> float:
    """Real flops of one `estimate_reflected_gram` call, computed from shapes:
    per draw the two colouring GEMMs (M*M*N + M*N*N complex MACs), the
    user-side colouring (N*N), the elementwise product (M*N complex
    multiplies) and the Gram contraction (N*N*M complex MACs)."""
    dims = args[0] if args else kwargs["dims"]
    trials = kwargs.get("trials", args[4] if len(args) > 4 else 10_000)
    N, M = dims.N, dims.M
    return float(trials) * (8.0 * (M * M * N + M * N * N + N * N + N * N * M) + 6.0 * M * N)


def _simulate_flops(args, kwargs) -> float:
    """Real flops of one `simulate_received` call written as one complex GEMM,
    [h^T | g^T] @ [A ; A*Phi]: 8 * M * tau * (K + K*N)."""
    chan = args[0] if args else kwargs["chan"]
    sched = args[1] if len(args) > 1 else kwargs["sched"]
    K, M = chan.h.shape
    N = chan.t.shape[1]
    return 8.0 * M * sched.pilots.shape[1] * (K + K * N)


def _distinct_slots(args, kwargs) -> int:
    """Phase-III LMMSE solves in one `phase3_lmmse_all_slots` call: the plan's
    distinct (user, elements) pairs, one fused solve each."""
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return len(set(zip(plan.users, plan.elements)))


def _scheme_arg(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["scheme"]


class Tracer:
    """Records spans for calls through the wrapped attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trials: list[list] = []      # [key, t0, t1]
        self.contexts: list = []          # (scheme, TrialContext) per build_context call
        self._stack: list[Span] = []
        self._open_trial = None
        self._phase = 0
        self._patched: list = []          # (module, name, original)

    # -- trial bookkeeping -------------------------------------------------

    def _close_trial(self, now: float) -> None:
        if self._open_trial is not None:
            self.trials[self._open_trial][2] = now
            self._open_trial = None
            self._phase = 0

    def _before(self, name: str, args, kwargs):
        """Update trial/phase state ahead of a call and return its span info."""
        if name == "harness.substream":
            if len(args) == 5:
                key = tuple(int(x) for x in args[1:4])
                if self._open_trial is None or self.trials[self._open_trial][0] != key:
                    now = time.perf_counter()
                    self._close_trial(now)
                    self.trials.append([key, now, now])
                    self._open_trial = len(self.trials) - 1
            return None
        if name.startswith("metrics."):
            self._close_trial(time.perf_counter())
            return None
        if name == "estimate.simulate_received":
            if self._open_trial is not None:
                self._phase += 1
            return _simulate_flops(args, kwargs)
        if name == "estimate.estimate_reflected_gram":
            return _gram_flops(args, kwargs)
        if name == "estimate.phase3_lmmse_all_slots":
            return _distinct_slots(args, kwargs)
        if name == "harness.build_context":
            return _scheme_arg(args, kwargs)
        return None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            info = self._before(name, args, kwargs)
            span = Span(name, stack[-1] if stack else None, self._open_trial, self._phase, info)
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if name == "harness.build_context":
                self.contexts.append((info, result))
            elif name == "harness.run_scheme":
                self._close_trial(span.t1)
            return result

        return wrapper

    def install(self, *modules) -> None:
        """Wrap every public function that the given modules hold in their
        namespaces and that is defined in an irsce layer module."""
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("irsce.") or layer not in LAYERS:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, f"{layer}.{obj.__name__}"))

    def restore(self) -> bool:
        """Put every original attribute back; True when all are restored."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched.clear()
        return ok


def _mean_ms(spans) -> float:
    spans = list(spans)
    return 1e3 * sum(s.dur for s in spans) / len(spans) if spans else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from a finished trace. A per-call mean of a function
    that the campaign never called reads 0."""
    spans = tracer.spans
    for s in spans:
        if s.parent is not None:
            s.parent.child_s += s.dur
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def under_context(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if p.name == "harness.build_context":
                return True
            p = p.parent
        return False

    out: dict[str, float] = {}
    gram = named("estimate.estimate_reflected_gram")
    out["estimate.gram_s"] = sum(s.dur for s in gram)
    out["estimate.gram_calls"] = float(len(gram))
    out["estimate.gram_gflop_computed"] = sum(s.info for s in gram) / 1e9
    out["estimate.lambda_priors_s"] = sum(s.dur for s in named("estimate.estimate_lambda_priors"))
    out["estimate.psi_ms"] = _mean_ms(named("estimate.psi_phase2", "estimate.psi_phase3"))

    sim = named("estimate.simulate_received")
    out["estimate.simulate_received_ms"] = _mean_ms(sim)
    for p in (1, 2, 3):
        sim_p = [s for s in sim if s.trial is not None and s.phase == p]
        out[f"estimate.simulate_received_ms.phase{p}"] = _mean_ms(sim_p)
        out[f"estimate.simulate_received_gflop_computed.phase{p}"] = sum(s.info for s in sim_p) / 1e9

    est = [s for s in named(*ESTIMATORS) if s.trial is not None]
    for p in (1, 2, 3):
        trials_p = {s.trial for s in sim if s.trial is not None and s.phase == p}
        total = sum(s.dur for s in est if s.phase == p)
        out[f"estimate.phase{p}_ms"] = 1e3 * total / len(trials_p) if trials_p else 0.0
    out["estimate.cancel_direct_ms"] = _mean_ms(named("estimate.cancel_direct"))
    out["estimate.phase3_pred_ms"] = _mean_ms(named("estimate.phase3_conditional_mse"))
    solves = named("estimate.phase3_lmmse_all_slots")
    out["estimate.phase3_solves_per_trial"] = (
        sum(s.info for s in solves) / len(solves) if solves else 0.0)
    out["estimate.phase3_noiseless_ms"] = _mean_ms(named("estimate.phase3_recover_noiseless"))

    out["model.draw_channels_ms"] = _mean_ms(named("model.draw_channels"))
    out["harness.substream_ms"] = _mean_ms(named("harness.substream"))

    contexts = named("harness.build_context")
    sched_ctx = [s for s in spans if s.layer == "schedule" and under_context(s)]
    out["schedule.context_build_ms"] = (
        1e3 * sum(s.dur for s in sched_ctx) / len(contexts) if contexts else 0.0)
    out["schedule.phase2_random_ms"] = _mean_ms(named("schedule.phase2_reflections_random"))
    out["schedule.phase2_schedule_ms"] = _mean_ms(named("schedule.phase2_schedule"))

    schemes_run = named("harness.run_scheme")
    agg = named("metrics.pooled_ratio", "metrics.ratio_halfwidth")
    out["metrics.aggregate_ms"] = (
        1e3 * sum(s.dur for s in agg) / len(schemes_run) if schemes_run else 0.0)

    trial_ms = [1e3 * (t1 - t0) for _, t0, t1 in tracer.trials]
    if len(trial_ms) >= 2:
        out["harness.trial_ms_p50"] = statistics.median(trial_ms)
        out["harness.trial_ms_p99"] = statistics.quantiles(trial_ms, n=100, method="inclusive")[98]
    else:
        out["harness.trial_ms_p50"] = out["harness.trial_ms_p99"] = trial_ms[0] if trial_ms else 0.0
    out["harness.trials_traced"] = float(len(trial_ms))
    out["harness.self_s"] = sum(s.dur - s.child_s for s in spans if s.layer == "harness")
    out["config.load_ms"] = _mean_ms(named("config.load_config"))
    return out
