"""Seeded Monte-Carlo campaigns across estimation schemes.

A campaign draws user placement once, caches the second-moment statistics the
LMMSE estimators need and every estimator factor that stays fixed across
trials, then runs `trials` independent channel/noise draws per scheme. Each
trial's randomness comes from a dedicated counter-based stream keyed by
(master seed, scheme, repetition, trial index, purpose), so results are
reproducible and independent of the worker count. A chunk of trials derives
the Philox keys of all its streams at once (`stream_keys`) and draws every
stream from one Philox generator, which `substream` re-keys to the stream's
key with a zero counter; Philox is counter-based, so the draws equal those
of a new generator seeded with the path's `SeedSequence`.

Trials run in blocks: every step of the protocol is one stacked call over
the block's trials, with each trial's matrices of the same shape as when run
alone. A trial's outcome is bit-for-bit the same in any block, so the CSV
does not depend on the block size or the worker count.

This module owns the streams, each scheme's scenario and context, the trial
blocks, aggregation, the CSV writer and the forked workers. What each scheme
computes (its noise model, Phase-II pattern, Phase-III strategy and slot
counts) is `schemes.SCHEME_TABLE`'s.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import time
import traceback
import zlib
from dataclasses import dataclass, fields, replace
from math import fsum

import numpy as np

from .config import ScenarioConfig
from .errors import InfeasibleScheduleError, InvalidGeometryError
from .estimate import _check_orthogonal, _received, reflected_gram
from .model import (
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    SystemDims,
    _as_generator,
    _channel_normals,
    _channels_from_normals,
    _NormalSlices,
    path_loss,
)
from .metrics import pooled_ratio, ratio_halfwidth
from .schedule import Phase3Plan, PhasePlan, Schedule, phase1_pilots, phase2_pilots
from .schemes import (
    SCHEME_TABLE,
    ExactInversion,
    Lmmse,
    MinimumLength,
    OrthogonalLmmse,
    PerUserBaseline,
    Phase2,
    _phase_plan,
)

# Stream purpose tags; the derivation path of every random draw is
# (seed, scheme_key, rep, trial, tag), placement/statistics omit the trial.
# The priors' tag, TAG_STATS, is defined in `schemes`, which draws them.
TAG_PLACEMENT = 101
TAG_CHANNEL = 1
TAG_NOISE = 2
TAG_SCHEDULE = 3

NAN = float("nan")


def scheme_key(name: str) -> int:
    """Stable 32-bit key of a scheme id (CRC-32 of its UTF-8 name)."""
    return zlib.crc32(name.encode("utf-8"))


_MASK32 = 0xFFFFFFFF


_ZERO4 = (0, 0, 0, 0)


def substream(*path: int, rng: np.random.Generator | None = None, key=None) -> np.random.Generator:
    """Philox generator at the start of the stream of an integer derivation
    path, seeded by the path's `SeedSequence`. Given a Philox generator `rng`
    and the path's `key` (its row of `stream_keys`, as two ints), `rng` is
    re-keyed to the stream instead, with counter 0, buffer empty and no
    32-bit half kept, and returned; the path is then not hashed. Philox is
    counter-based, so whatever `rng` drew before, its draws are then those
    of a new generator on the path."""
    if rng is None:
        return _as_generator(np.random.SeedSequence([int(x) & _MASK32 for x in path]))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


# numpy's SeedSequence (numpy/random/bit_generator.pyx) for a 5-word path:
# each word is hashed into a 4-word pool, the pool words are mixed pairwise,
# the fifth word is mixed into each, and the pool is hashed out as 4 words.
# Every hash call's (xor, multiplier) pair depends only on its place in that
# sequence, never on the data, so the pairs are fixed here.
_POOL = 4


def _hash_constants(h: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    xor, mul = [], []
    for _ in range(calls):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# 20 mixing hashes: 4 words in, 12 pairwise pool mixes, 4 for the fifth word
_MIX_XOR, _MIX_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [np.array([d for d in range(_POOL) if d != s], dtype=np.intp) for s in range(_POOL)]


def _hashmix(v: np.ndarray, calls: slice) -> np.ndarray:
    v = v ^ _MIX_XOR[calls]
    v *= _MIX_MULT[calls]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


def stream_keys(paths) -> np.ndarray:
    """The Philox keys (P, 2) uint64 of P 5-word derivation paths (P, 5),
    each equal to `SeedSequence(path).generate_state(2, np.uint64)` with every
    word masked to 32 bits, as `substream` masks it. All paths are hashed at
    once, in uint32 arithmetic that wraps as numpy's does."""
    words = (np.asarray(paths) & _MASK32).astype(np.uint32).T       # (5, P)
    if words.ndim != 2 or len(words) != _POOL + 1:
        raise ValueError(f"stream_keys takes (P, {_POOL + 1}) paths, got shape {words.T.shape}")
    pool = _hashmix(words[:_POOL], slice(0, _POOL))
    for s, others in enumerate(_OTHERS):
        calls = slice(_POOL + 3 * s, _POOL + 3 * s + 3)
        pool[others] = _mix(pool[others], _hashmix(pool[s], calls))
    pool = _mix(pool, _hashmix(words[_POOL], slice(4 * _POOL, 5 * _POOL)))
    pool ^= _OUT_XOR
    pool *= _OUT_MULT
    pool ^= pool >> 16
    return pool.T.astype("<u4").view("<u8").astype(np.uint64)


def place_users(config: ScenarioConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw user positions uniformly on the configured disc and return the
    per-user (BS distance, IRS distance) arrays.

    The BS sits at the origin and the IRS on the x-axis at the BS-IRS
    distance; the disc center is placed to match its configured distances
    from both.
    """
    d_bi = config.d_bs_irs_m
    d_cb = config.user_center_d_bs_m
    d_ci = config.user_center_d_irs_m
    cx = (d_bi**2 + d_cb**2 - d_ci**2) / (2.0 * d_bi)
    cy2 = d_cb**2 - cx**2
    if cy2 < -1e-9 * d_cb**2:
        raise InvalidGeometryError(
            "user-center distances are incompatible with the BS-IRS distance")
    center = np.array([cx, np.sqrt(max(cy2, 0.0))])
    bs = np.array([0.0, 0.0])
    irs = np.array([d_bi, 0.0])

    rng = _as_generator(seed)
    r = config.user_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=config.K))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=config.K)
    pos = center[None, :] + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    d_bs_user = np.linalg.norm(pos - bs[None, :], axis=1)
    d_irs_user = np.linalg.norm(pos - irs[None, :], axis=1)
    return d_bs_user, d_irs_user


@dataclass(frozen=True)
class _Scenario:
    """A scheme's dimensions, schedules and link model for one repetition:
    everything short of its second-moment statistics, as `phase_schedules`
    reads it. `layout` is the on/off plan that sched3 was built from."""

    config: ScenarioConfig
    scheme: str
    rep: int
    skey: int                      # scheme_key(scheme)
    dims: SystemDims
    plan: PhasePlan
    sched1: Schedule
    phase2: Phase2
    sched3: Schedule
    layout: Phase3Plan | None      # None for the per-user baseline
    budget: LinkBudget
    corr: CorrelationSpec
    loss: PathLossSpec
    beta_bu: np.ndarray

    def reflected_gram(self, user: int) -> np.ndarray:
        return reflected_gram(self.dims, self.corr, self.loss, user, self.config.r_var_n_factor)


@dataclass(frozen=True)
class TrialContext(_Scenario):
    """Everything a trial needs: the scenario with its noise model and
    Phase-III strategy, built once per scheme and repetition and inherited
    by the forked trial workers (immutable, picklable)."""

    noise: ExactInversion | Lmmse
    phase3: MinimumLength | OrthogonalLmmse | PerUserBaseline


def _scenario(config: ScenarioConfig, scheme: str, rep: int) -> _Scenario:
    spec = SCHEME_TABLE[scheme]
    dims = SystemDims(config.K, config.N, config.M)
    budget = LinkBudget.from_dbm(config.power_dbm, config.bandwidth_hz, config.noise_psd_dbm_hz)
    corr = CorrelationSpec(
        np.full(dims.K, config.corr_bs_direct, dtype=complex),
        config.corr_bs_reflect,
        config.corr_irs_reflect,
        np.full(dims.K, config.corr_irs_user, dtype=complex),
    )
    d_bu, d_iu = place_users(config, substream(config.seed, rep, TAG_PLACEMENT))
    loss = PathLossSpec(
        config.beta0_db, config.d0_m, d_bu, d_iu, config.d_bs_irs_m,
        config.alpha_direct, config.alpha_irs_user, config.alpha_bs_irs,
    )
    beta_bu, _, _ = path_loss(loss)

    plan, sched3, layout = _phase_plan(config, scheme, dims)
    sched1 = Schedule(phase1_pilots(dims.K, plan.tau1), np.zeros((dims.N, plan.tau1)))
    refl2 = spec.phase2(dims.N, plan.tau2) if spec.phase2 else None
    if refl2 is None and plan.tau2 < dims.N:  # a random pattern is drawn only in the trials
        raise InfeasibleScheduleError(f"tau2={plan.tau2} < N={dims.N}")
    phase2 = Phase2(phase2_pilots(dims.K, plan.tau2), refl2, dims.N)
    return _Scenario(config, scheme, rep, scheme_key(scheme), dims, plan, sched1, phase2, sched3,
                     layout, budget, corr, loss, beta_bu)


def phase_schedules(config: ScenarioConfig, scheme: str) -> tuple[PhasePlan, Schedule, Schedule, Schedule]:
    """Resolved slot counts and the Phase I, II and III schedules a scheme
    transmits in trial 0 of repetition 0, without computing any statistics."""
    sc = _scenario(config, scheme, 0)
    refl2 = sc.phase2.draw(substream(config.seed, sc.skey, 0, 0, TAG_SCHEDULE))
    return sc.plan, sc.sched1, Schedule(sc.phase2.pilots, refl2), sc.sched3


@dataclass(frozen=True)
class ResultRow:
    """Aggregated campaign output for one (scheme, configuration, repetition)."""

    scheme: str
    K: int
    N: int
    M: int
    tau1: int
    tau2: int
    tau3: int
    rep: int
    seed: int
    trials: int
    e1: float
    e1_pred: float
    e2: float
    e2_pred: float
    e2_ci: float
    e3: float          # scaling-factor domain; NaN for the benchmark scheme
    e3_pred: float
    e3_ci: float
    e3_g: float        # reflected-channel domain over users 2..K
    e_total: float
    e_total_ci: float
    wall_clock: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "wall_clock")


def emit_csv(rows, path, include_timing: bool = False) -> None:
    """Write result rows with a stable column order and 12-significant-digit
    decimals. Timing is opt-in so default output is byte-identical across
    reruns and worker counts."""
    cols = CSV_COLUMNS + (("wallclock_s",) if include_timing else ())
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for col in cols:
                v = row.wall_clock if col == "wallclock_s" else getattr(row, col)
                cells.append(str(v) if isinstance(v, (int, str)) else f"{v:.12g}")
            f.write(",".join(cells) + "\n")


# A trial's outcome: each phase's squared-error sum and squared norm, and
# its per-trial predictions. A block's outcomes are one (B,) record array.
OUTCOME = np.dtype([(name, np.float64) for name in (
    "e1_num", "e1_den", "e2_num", "e2_den", "e2_pred",
    "e3_num", "e3_den", "e3_pred", "e3g_num", "e3g_den",
)])


def _sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each trial's entries of a block a (B, ...): the squares
    of their real and imaginary parts, summed in the trial's C order as one
    contiguous row."""
    v = np.ascontiguousarray(a).reshape(len(a), -1).view(np.float64)
    return np.sum(np.square(v), axis=-1)


_BLOCK_BYTES = 1 << 19
_BLOCK_MAX = 64


def _block_size(ctx: TrialContext) -> int:
    """Trials per block: as many as keep the block's largest per-trial array
    within 512 KiB, at most 64. The candidates are the reflected channels
    (K, M, N), the noise of all three phases (2, M, tau1 + tau2 + tau3) and,
    for a random Phase-II pattern, its weights: the (N, N) inverse Cholesky
    factor of the posterior precision and the (tau2, N) Psi^-1 Phi^H. A
    block's transient memory is several times its largest array, and a trial
    worker's peak memory grows with it."""
    (K, N, M), plan = (ctx.dims.K, ctx.dims.N, ctx.dims.M), ctx.plan
    largest = max(K * N * M, M * plan.total)
    if ctx.phase2.refl is None:
        largest = max(largest, N * max(N, plan.tau2))
    return max(1, min(_BLOCK_MAX, _BLOCK_BYTES // (16 * largest)))


def _trial_paths(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    """The derivation paths (T, S, 5) of the trials' streams: per trial its
    channel stream, then its noise stream if the noise model is on, then its
    Phase-II pattern stream if the pattern is random."""
    wanted = ((TAG_CHANNEL, True), (TAG_NOISE, ctx.noise.noise_on), (TAG_SCHEDULE, ctx.phase2.refl is None))
    tags = [tag for tag, on in wanted if on]
    paths = np.empty((len(trials), len(tags), 5), dtype=np.int64)
    paths[...] = (ctx.config.seed, ctx.skey, ctx.rep, 0, 0)
    paths[..., 3] = np.asarray(trials)[:, None]
    paths[..., 4] = tags
    return paths


def _run_block(ctx: TrialContext, paths: np.ndarray, keys: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Run the trials whose stream paths are `paths` (B, S, 5), rows of
    `_trial_paths`, as one block, drawing from `rng`, a Philox generator
    that `substream` re-keys to each stream's row of `keys` (B, S, 2) in
    turn. Each step is one stacked call with a leading trial axis, and
    every trial's outcome is bit-for-bit that of a block holding it alone."""
    dims, budget, noise = ctx.dims, ctx.budget, ctx.noise
    K, p = dims.K, budget.p

    # Each stream draws all its normals in one call, straight into its
    # trial's row, in the order the phases use them; a fixed Phase-II
    # pattern has no stream, and `draw` gets None.
    chan_z = np.empty((len(keys), _channel_normals(dims)))
    noise_z = np.empty((len(keys), 2 * dims.M * ctx.plan.total)) if noise.noise_on else None
    draws2 = []
    for i, (trial_paths, trial_keys) in enumerate(zip(paths.tolist(), keys.tolist())):
        streams = (substream(*path, rng=rng, key=key) for path, key in zip(trial_paths, trial_keys))
        next(streams).standard_normal(out=chan_z[i])
        if noise_z is not None:
            next(streams).standard_normal(out=noise_z[i])
        draws2.append(ctx.phase2.draw(next(streams, None)))
    chan = _channels_from_normals(dims, ctx.corr, ctx.loss, chan_z, ctx.config.r_var_n_factor)
    awgn = None if noise_z is None else _NormalSlices(noise_z)

    def received(factors, pilots, refl):
        y = _received(factors, pilots, refl, p)
        return y if awgn is None else np.add(y, awgn.take(y.shape[1:], budget.sigma2), out=y)

    # Phase I: direct channels, IRS off, so no reflected term is synthesized.
    h_hat = noise.phase1(received(chan, ctx.sched1.pilots, None), ctx)

    # Phases II and III are synthesized from the direct residual H - H_hat
    resid = replace(chan, h=chan.h - h_hat)

    # Phase II: user-1 reflected channels.
    refl2 = ctx.phase2.refl if ctx.phase2.refl is not None else np.stack(draws2)
    g1_hat, e2_pred = noise.phase2(received(resid, ctx.phase2.pilots, refl2), refl2, ctx)

    power = chan.g_power                                            # (B, K)
    o = np.full(len(keys), NAN, dtype=OUTCOME)
    o["e1_num"], o["e1_den"] = _sq(h_hat - chan.h), _sq(chan.h)
    o["e2_num"], o["e2_den"], o["e2_pred"] = _sq(g1_hat - chan.g1), power[:, 0], e2_pred

    # Phase III: remaining users; lam_hat is NaN when the scheme estimates no
    # scaling factors, which makes e3 NaN. A single user's fields stay NaN.
    if K > 1:
        ybar3 = received(resid, ctx.sched3.pilots, ctx.sched3.reflections)
        lam_hat, g_rest, o["e3_pred"] = ctx.phase3.estimate(ybar3, chan, g1_hat, ctx)
        o["e3_num"], o["e3_den"] = _sq(lam_hat - chan.lam), _sq(chan.lam)
        o["e3g_num"], o["e3g_den"] = _sq(g_rest - chan.g[:, 1:]), np.sum(power[:, 1:], axis=-1)
    return o


def _trial_chunk(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    """Run trials in blocks of `_block_size`, with the keys of every stream of
    the chunk from one `stream_keys` call and one Philox generator re-keyed
    to each stream in turn."""
    size, paths = _block_size(ctx), _trial_paths(ctx, trials)
    keys = stream_keys(paths.reshape(-1, 5)).reshape(*paths.shape[:2], 2)
    rng = np.random.Generator(np.random.Philox(key=0))
    return np.concatenate([_run_block(ctx, paths[i:i + size], keys[i:i + size], rng)
                           for i in range(0, len(trials), size)])


def build_context(config: ScenarioConfig, scheme: str, rep: int = 0) -> TrialContext:
    """Resolve schedules and cache the scenario statistics for one scheme:
    its noise model and its Phase-III strategy."""
    spec = SCHEME_TABLE[scheme]
    sc = _scenario(config, scheme, rep)
    # the fixed Phase-I pilots are checked here once, not in every trial
    _check_orthogonal(sc.sched1.pilots, sc.plan.tau1, "phase-1 pilot")
    return TrialContext(**vars(sc), noise=spec.noise(sc), phase3=spec.phase3(sc))


def _aggregate(ctx: TrialContext, outcomes: np.ndarray, wall: float) -> ResultRow:
    """Pool a scheme's trial outcomes (an OUTCOME record array) into its row.
    A pooled prediction is the mean per-trial prediction over the normalizer
    its noise model (`e2_pred_den`) or Phase-III strategy (`e3_pred_den`)
    carries: the prior power of what it estimates, or 1.0 where the
    prediction is 0 or NaN."""
    dims, plan, o = ctx.dims, ctx.plan, outcomes

    def pooled_pred(name, den):
        return fsum(o[name]) / len(o) / den

    # each trial's totals: e1 + e2, then + e3g where there is a Phase III
    e3 = e3_ci = e3_pred = e3_g = NAN
    tot_num, tot_den = o["e1_num"] + o["e2_num"], o["e1_den"] + o["e2_den"]
    if dims.K > 1:
        e3 = pooled_ratio(o["e3_num"], o["e3_den"])
        e3_ci = ratio_halfwidth(o["e3_num"], o["e3_den"])
        e3_pred = pooled_pred("e3_pred", ctx.phase3.e3_pred_den)
        e3_g = pooled_ratio(o["e3g_num"], o["e3g_den"])
        tot_num, tot_den = tot_num + o["e3g_num"], tot_den + o["e3g_den"]
    return ResultRow(
        scheme=ctx.scheme, K=dims.K, N=dims.N, M=dims.M,
        tau1=plan.tau1, tau2=plan.tau2, tau3=plan.tau3,
        rep=ctx.rep, seed=ctx.config.seed, trials=len(o),
        e1=pooled_ratio(o["e1_num"], o["e1_den"]), e1_pred=ctx.noise.e1_pred,
        e2=pooled_ratio(o["e2_num"], o["e2_den"]), e2_pred=pooled_pred("e2_pred", ctx.noise.e2_pred_den),
        e2_ci=ratio_halfwidth(o["e2_num"], o["e2_den"]),
        e3=e3, e3_pred=e3_pred, e3_ci=e3_ci, e3_g=e3_g,
        e_total=pooled_ratio(tot_num, tot_den),
        e_total_ci=ratio_halfwidth(tot_num, tot_den),
        wall_clock=wall,
    )


try:
    _libc = ctypes.CDLL(None)
    _malloc_trim, _malloc, _free = _libc.malloc_trim, _libc.malloc, _libc.free
    _malloc.argtypes, _malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    _free.argtypes, _free.restype = (ctypes.c_void_p,), None
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _raise_heap_thresholds() -> None:
    """Free one untouched, mapped 3 MiB block, which raises glibc's mmap and
    trim thresholds (128 KiB until raised) to its size and twice that: a trial
    block's temporaries then stay in the heap, not faulted in again per block.
    After a larger block, as a λ-prior draw frees, it moves neither threshold."""
    if _malloc_trim is not None:
        _free(_malloc(3 << 20))


def _release_free_heap() -> None:
    """Return the C allocator's free heap pages to the OS, where it can (glibc).

    A forked trial worker starts with every page this process has mapped. How
    many freed pages the allocator still holds after a context build depends
    on its allocation history, so without this a worker's footprint jumps by
    about 10 MiB between runs that differ only in, say, a path length."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _fork_worker(contexts: list[TrialContext], trials: list[int]):
    """Fork a child that runs `_trial_chunk(ctx, trials)` for every context it
    inherits, in context order, and writes the pickled list of their outcomes,
    or the exception a chunk raised with its traceback, to a pipe. Returns
    the child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        # the child never returns into the caller's code: every path ends in
        # os._exit, which runs no atexit handler and flushes no inherited buffer
        status = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps(([_trial_chunk(ctx, trials) for ctx in contexts], None))
            except Exception as exc:
                payload = pickle.dumps((exc, traceback.format_exc()))
            with open(w, "wb") as f:
                f.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_chunks(contexts: list[TrialContext], chunks: list[list[int]]) -> tuple[list[np.ndarray], list[float]]:
    """Run chunks[0] of every context in this process and each later chunk in
    one forked child, which runs that chunk of every context; one chunk forks
    nothing. Returns each context's outcomes, joined in chunk order, and the
    seconds this process spent on each context's own chunk. Every pipe is
    read to EOF before any child is reaped. A child's exception is raised here
    with its type and message, and a child that exits without writing its
    result raises RuntimeError. If anything raises, every child not yet
    reaped is killed and reaped."""
    children = []  # (pid, pipe) not yet reaped, in chunk order
    try:
        for trials in chunks[1:]:
            children.append(_fork_worker(contexts, trials))
        own, own_s = [], []
        for ctx in contexts:
            t0 = time.perf_counter()
            own.append(_trial_chunk(ctx, chunks[0]))
            own_s.append(time.perf_counter() - t0)
        payloads = []
        for _, pipe in children:
            with pipe:
                payloads.append(pipe.read())
        parts = [own]
        for payload in payloads:
            pid = children[0][0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"trial worker {pid} exited with status {status} without a result")
            result, tb = pickle.loads(payload)  # written by our own child
            if tb is not None:
                raise result from RuntimeError(f"in trial worker {pid}:\n{tb}")
            parts.append(result)
        return [np.concatenate(outcomes) for outcomes in zip(*parts)], own_s
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_repetition(config: ScenarioConfig, schemes: tuple[str, ...], rep: int) -> list[ResultRow]:
    """Run all trials of each scheme in one repetition and aggregate them into
    one ResultRow per scheme, in scheme order. Every scheme's context is built
    first, in scheme order. The trials are then split into at most one chunk
    per thread and per trial, the same chunks for every scheme, and run as
    `_run_chunks` says: the repetition forks its `threads` - 1 workers once,
    whatever the number of schemes, and one worker forks nothing. A row's
    wall_clock is its context build plus a share of the trial phase (forks,
    chunks and results), in proportion to the time this process spent on the
    scheme's own chunk, so a repetition's rows add up to its wall time before
    aggregation."""
    contexts, build_s = [], []
    for scheme in schemes:
        t0 = time.perf_counter()
        contexts.append(build_context(config, scheme, rep))
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    _raise_heap_thresholds()
    workers = min(config.threads, config.trials)
    chunks = [c.tolist() for c in np.array_split(np.arange(config.trials), workers)]
    if workers > 1:
        _release_free_heap()
    outcomes, own_s = _run_chunks(contexts, chunks)
    trial_s, own_total = time.perf_counter() - t0, sum(own_s)
    return [_aggregate(ctx, o, b + trial_s * s / own_total)
            for ctx, o, b, s in zip(contexts, outcomes, build_s, own_s)]


def run_scheme(config: ScenarioConfig, scheme: str, rep: int = 0) -> ResultRow:
    """Run all trials for one scheme in one repetition and aggregate them into
    a ResultRow: `_run_repetition` for this scheme alone."""
    return _run_repetition(config, (scheme,), rep)[0]


def run_campaign(config: ScenarioConfig) -> list[ResultRow]:
    """Run every configured scheme and repetition through `_run_repetition`,
    one repetition at a time; rows come back in a fixed (repetition, scheme)
    order."""
    return [row for rep in range(config.repetitions)
            for row in _run_repetition(config, config.schemes, rep)]
