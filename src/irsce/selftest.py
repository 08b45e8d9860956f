"""Built-in invariant suite behind the `selftest` CLI verb.

Each check is small enough to run in seconds. The five checks cover the
load-bearing identities:

- `dft-gram`: the DFT block behind the Phase-I pilots, the Phase-II DFT
  pattern and the per-user baseline's blocks has S S^H = tau I, relative
  to tau, for rows <= tau;
- `phase3-plan-sets`: distinct on-elements per slot, recovery order and
  single coverage of both on/off Phase-III plans, the minimum-length and
  the orthogonal noisy one, on a dims grid;
- `phase3-system-rank`: full rank of the stacked Phase-III system on a
  dims grid;
- `received-signal-bruteforce`: the block received-signal kernel the trials
  run (`estimate._received`, on a block of trials, with one reflection
  pattern per trial and with the elements off) against a brute-force
  triple loop;
- `campaign-determinism`: byte-identical CSVs across worker counts.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .estimate import _received, stacked_system_matrix
from .harness import emit_csv, run_campaign, substream
from .model import ChannelModel, CorrelationSpec, PathLossSpec, SystemDims, _channel_normals
from .schedule import dft_block, phase3_plan, phase3_schedule_noiseless, phase3_schedule_orthogonal_noisy


def _check_dft_gram() -> str:
    worst = 0.0
    for rows, tau in [(1, 1), (2, 2), (3, 4), (3, 5), (8, 8), (8, 13), (8, 19), (32, 32)]:
        S = dft_block(rows, tau)
        worst = max(worst, float(np.max(np.abs(S @ S.conj().T - tau * np.eye(rows)))) / tau)
    assert worst < 1e-12, f"DFT Gram relative deviation {worst}"
    return f"max rel |S S^H - tau I| = {worst:.2e}"


def _grid(k_max: int, nm_max: int):
    for K in range(2, k_max + 1):
        for N in range(1, nm_max + 1):
            for M in range(1, nm_max + 1):
                yield SystemDims(K, N, M)


def _check_plan_sets() -> str:
    count = 0
    for dims in _grid(8, 24):
        phase3_plan(dims)  # each builder validates the plan it builds
        phase3_schedule_orthogonal_noisy(dims)
        count += 1
    return (f"minimum-length and orthogonal plans validated on {count} dims "
            "(distinct elements, recovery order, coverage)")


def _check_v_rank() -> str:
    rng = substream(2024, 7)
    worst = np.inf
    for dims in _grid(4, 4):
        sched, _ = phase3_schedule_noiseless(dims)
        g1 = (rng.standard_normal((dims.M, dims.N)) + 1j * rng.standard_normal((dims.M, dims.N)))
        V = stacked_system_matrix(sched, g1)
        s = np.linalg.svd(V, compute_uv=False)
        need = (dims.K - 1) * dims.N
        assert s.size >= need and s[need - 1] > 1e-9 * s[0], f"rank deficiency at {dims}"
        worst = min(worst, s[need - 1] / s[0])
    return f"stacked system full rank on the grid; min sigma ratio {worst:.2e}"


def _check_received_bruteforce() -> str:
    rng = substream(2024, 8)
    B, K, N, M, tau, p = 3, 3, 4, 2, 6, 2.0
    dims = SystemDims(K, N, M)
    z = rng.standard_normal((B, _channel_normals(dims)))
    chan = ChannelModel.of(dims, CorrelationSpec.uniform(0.4, K), PathLossSpec.unit(K)).channels(z)
    pilots = np.where(rng.uniform(size=(K, tau)) < 0.7, 1.0, 0.0) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (K, tau)))
    refl = np.where(rng.uniform(size=(B, N, tau)) < 0.7, 1.0, 0.0) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (B, N, tau)))
    worst = 0.0
    for what, phi in (("per-trial patterns", refl), ("refl None", None)):
        y = _received(chan, pilots, phi, p)
        on = np.zeros_like(refl) if phi is None else phi
        ref = np.zeros((B, M, tau), dtype=complex)
        for b, i, k in np.ndindex(B, tau, K):
            v = chan.h[b, k].copy()
            for n in range(N):
                v = v + on[b, n, i] * chan.g[b, k, :, n]
            ref[b, :, i] += np.sqrt(p) * v * pilots[k, i]
        dev = float(np.max(np.abs(y - ref)))
        scale = float(np.max(np.abs(ref)))
        assert dev <= 1e-12 * max(scale, 1.0), f"{what}: deviation {dev} vs brute force"
        worst = max(worst, dev)
    return f"block synthesis matches brute force to {worst:.2e}"


def _check_campaign_determinism() -> str:
    cfg = replace(
        ScenarioConfig(),
        K=2, N=2, M=2, trials=6, seed=42, schemes=("proposed-lmmse", "phase2-random"),
        repetitions=2, prior_draws=1000,
    ).validate()
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for threads in (1, 2):
            rows = run_campaign(replace(cfg, threads=threads))
            path = Path(d) / f"t{threads}.csv"
            emit_csv(rows, path)
            paths.append(path.read_bytes())
    assert paths[0] == paths[1], "CSV differs between 1 and 2 workers"
    return "byte-identical CSV of 2 schemes x 2 repetitions with 1 and 2 workers"


CHECKS = (
    ("dft-gram", _check_dft_gram),
    ("phase3-plan-sets", _check_plan_sets),
    ("phase3-system-rank", _check_v_rank),
    ("received-signal-bruteforce", _check_received_bruteforce),
    ("campaign-determinism", _check_campaign_determinism),
)


def run_selftest(verbose: bool = True) -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) triples."""
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append((name, ok, detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
