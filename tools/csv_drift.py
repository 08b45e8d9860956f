#!/usr/bin/env python3
"""Compare `irsce run` CSVs of a base revision with those of the working tree.

    python3 tools/csv_drift.py --base REV

Run from the root of a checkout; REV is usually the parent of the change
under test. The base revision is exported with `git archive` into a
temporary directory, so the repository's own state is untouched. Both sides
then run the same `irsce run` command lines, TRIALS trials of all five
schemes, on `configs/default.cfg` and on the variants in VARIANTS, at every
worker count in THREADS. For each run the script prints both CSVs' sha256
and whether they match, then the largest relative move per numeric column
and scheme over all runs, so that a round-off move in one scheme does not
hide another's. Exit status 1 means some CSV differs.

The bytes are reproducible only on one machine and numpy/BLAS build, so a
comparison is meaningful only between two sides run on the same machine,
not against a hash recorded elsewhere.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMES = "proposed-noiseless,proposed-lmmse,benchmark,phase2-onoff,phase2-random"
TRIALS = 20
THREADS = (1, 2)

# (name, base config relative to the checkout, lines appended to it)
VARIANTS = (
    ("default", "configs/default.cfg", ""),
    ("K3-N5-M2-tau3-17", "configs/default.cfg", "K = 3\nN = 5\nM = 2\ntau3 = 17"),
    ("perfect", "configs/default.cfg", "phase3_g1 = perfect"),
    ("K3-N5-M2-tau3-13-perfect", "configs/default.cfg", "K = 3\nN = 5\nM = 2\ntau3 = 13\nphase3_g1 = perfect"),
    ("K4-N20-M8-tau3-21", "configs/default.cfg", "K = 4\nN = 20\nM = 8\ntau3 = 21"),
    ("K4-N20-M8-tau2-40", "configs/default.cfg", "K = 4\nN = 20\nM = 8\ntau2 = 40"),
    ("small-dims", "perfbench/configs/small-dims.cfg", ""),
    ("small-dims-seed-max-reps2", "perfbench/configs/small-dims.cfg", "seed = 4294967295\nrepetitions = 2"),
    ("K3-N64-M64-corr0.99", "configs/default.cfg", "K = 3\nN = 64\nM = 64\ncorr_bs_direct = 0.99"),
    ("K1-tau3-5-extra3-even", "configs/default.cfg", "K = 1\ntau3 = 5\nextra_slots = 3\nextra_policy = even"),
)


def export(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_csv(side: Path, cfg: Path, threads: int, out: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "irsce.cli", "run", "--config", str(cfg), "--trials", str(TRIALS),
         "--scheme", SCHEMES, "--threads", str(threads), "--out", str(out)],
        env=env, cwd=side, check=True, capture_output=True)
    return out.read_bytes()


def rel_moves(a: bytes, b: bytes) -> dict[tuple[str, str], float]:
    """Largest |b - a| / |a| per (numeric column, scheme) over matching rows.
    A change between NaN or an infinity and another value, or from 0, is a
    move of inf; so is a base column missing from the new CSV or no longer
    numeric there, and a differing row count, under the key ("rows", "")."""
    rows_a = list(csv.DictReader(io.StringIO(a.decode())))
    rows_b = list(csv.DictReader(io.StringIO(b.decode())))
    moves: dict[tuple[str, str], float] = {}
    if len(rows_a) != len(rows_b):
        moves["rows", ""] = math.inf
    for ra, rb in zip(rows_a, rows_b):
        for col, va in ra.items():
            try:
                x = float(va)
            except ValueError:
                continue
            try:
                y = float(rb[col])
            except (KeyError, ValueError):
                move = math.inf
            else:
                if x == y or math.isnan(x) and math.isnan(y):
                    move = 0.0
                elif math.isfinite(x) and math.isfinite(y) and x:
                    move = abs(y - x) / abs(x)
                else:
                    move = math.inf
            key = (col, ra["scheme"])
            moves[key] = max(moves.get(key, 0.0), move)
    return moves


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree against")
    args = ap.parse_args(argv)

    differ = False
    worst: dict[tuple[str, str], tuple[float, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        export(args.base, base)
        print(f"base {args.base} vs working tree {ROOT}, {TRIALS} trials, schemes {SCHEMES}")
        for name, cfg_rel, extra in VARIANTS:
            text = (ROOT / cfg_rel).read_text() + "\n" + extra + "\n"
            cfg = tmp / f"{name}.cfg"
            cfg.write_text(text)
            for n in THREADS:
                a = run_csv(base, cfg, n, tmp / "a.csv")
                b = run_csv(ROOT, cfg, n, tmp / "b.csv")
                ha, hb = hashlib.sha256(a).hexdigest(), hashlib.sha256(b).hexdigest()
                same = a == b
                differ |= not same
                print(f"{name} threads={n}: {'equal' if same else 'DIFFER'}\n  base {ha}\n  new  {hb}")
                for (col, scheme), move in rel_moves(a, b).items():
                    worst[col, scheme] = max(worst.get((col, scheme), (0.0, "")), (move, name))
                    if move:
                        print(f"  {col} moved by {move:.3g} ({scheme})")
    moved = {key: where for key, where in sorted(worst.items()) if where[0]}
    print("largest relative move per column and scheme:", "none" if not moved else "")
    for (col, scheme), (move, name) in moved.items():
        print(f"  {col:12s} {scheme:20s} {move:.3g} ({name})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
