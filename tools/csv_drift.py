#!/usr/bin/env python3
"""Compare `irsce run` CSVs and `irsce schedule` dumps of a base revision with
those of the working tree.

    python3 tools/csv_drift.py --base REV

Run from the root of a checkout; REV is usually the parent of the change
under test. The base revision is exported with `git archive` into a
temporary directory, so the repository's own state is untouched. Each side
names its own scheme ids (its `irsce.config.SCHEMES`). Both sides then run
the same `irsce run` command lines, TRIALS trials of every id both sides
know, in the working tree's order, on `configs/default.cfg` and on the
variants in VARIANTS, at every worker count in THREADS. For each run the script prints both CSVs' sha256
and whether they match, then the largest relative move per numeric column
and scheme over all runs, so that a round-off move in one scheme does not
hide another's. On every variant both sides also dump each scheme's
schedule with `irsce schedule --phase all`; the script prints whether the
dumps are equal, with both sha256s where they differ. After the
per-column table come a line "worker counts: X of Y variants give
byte-identical CSVs" followed by the variants whose working-tree CSVs
differ between worker counts, a line "scheme ids on one side only:" naming
any id that only one side knows, which is not run and does not change the
exit status, and a line "schedules: X of Y equal" followed by the
(variant, scheme) pairs that differ. Exit status 1 means some CSV or
schedule dump differs from the base's, or some variant's working-tree CSVs
differ between worker counts. Exit status 2 means a run failed: the report
stops there, after a line beginning "run failed" that names the variant
(or "scheme ids"), the side and the worker count or the scheme, followed
by the run's stderr.

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
TRIALS = 20
THREADS = (1, 2)

# (name, base config relative to the checkout, lines appended to it)
VARIANTS = (
    ("default", "configs/default.cfg", ""),
    ("K3-N5-M2-tau3-17", "configs/default.cfg", "K = 3\nN = 5\nM = 2\ntau3 = 17"),
    ("perfect", "configs/default.cfg", "phase3_g1 = perfect"),
    # tau3 = (K-1)N: 32 repeats of each of the noiseless scheme's 7 slots
    ("tau3-224", "configs/default.cfg", "tau3 = 224"),
    ("K3-N5-M2-tau3-13-perfect", "configs/default.cfg", "K = 3\nN = 5\nM = 2\ntau3 = 13\nphase3_g1 = perfect"),
    ("K4-N20-M8-tau3-21", "configs/default.cfg", "K = 4\nN = 20\nM = 8\ntau3 = 21"),
    ("K4-N20-M8-tau2-40", "configs/default.cfg", "K = 4\nN = 20\nM = 8\ntau2 = 40"),
    # tau2 far above N, where a closed-form Psi_2^-1 and a dense inverse
    # round most differently
    ("K4-N8-M8-tau2-256", "configs/default.cfg", "K = 4\nN = 8\nM = 8\ntau2 = 256"),
    ("K4-N20-M8-draws1001", "configs/default.cfg", "K = 4\nN = 20\nM = 8\nprior_draws = 1001"),
    ("small-dims", "perfbench/configs/small-dims.cfg", ""),
    ("small-dims-seed-max-reps2", "perfbench/configs/small-dims.cfg", "seed = 4294967295\nrepetitions = 2"),
    # 8 repeats of every Phase-III slot on both the orthogonal and the
    # noiseless path, whose base cycles are both 12 slots
    ("small-dims-tau3-96", "perfbench/configs/small-dims.cfg", "tau3 = 96"),
    ("K3-N64-M64-corr0.99", "configs/default.cfg", "K = 3\nN = 64\nM = 64\ncorr_bs_direct = 0.99"),
    ("K1-tau3-5-extra3-even", "configs/default.cfg", "K = 1\ntau3 = 5\nextra_slots = 3\nextra_policy = even"),
    # Phase I takes all 5 extra slots: 4 x 9 DFT pilots
    ("K4-N8-M8-extra5-phaseI", "configs/default.cfg",
     "K = 4\nN = 8\nM = 8\nextra_slots = 5\nextra_policy = phaseI"),
    # user 4's leftover window wraps past N
    ("K5-N8-M5", "configs/default.cfg", "K = 5\nN = 8\nM = 5"),
    # user 6's leftover window wraps past N, and the even policy adds 3
    # repeated slots to the noiseless scheme's minimum 9
    ("K6-N12-M7-extra9-even", "configs/default.cfg", "K = 6\nN = 12\nM = 7\nextra_slots = 9\nextra_policy = even"),
    # M > N: the noiseless scheme solves tall all-on systems
    ("K5-N8-M20", "configs/default.cfg", "K = 5\nN = 8\nM = 20"),
    # nearly parallel user-1 columns, ill-conditioned Phase-III systems
    ("K8-N32-M32-corr0.99999", "configs/default.cfg",
     "K = 8\nN = 32\nM = 32\ncorr_irs_reflect = 0.99999\ncorr_bs_reflect = 0.99999"),
    # Phase-III systems of d = 20, not a multiple of the 8-row blocks of the
    # LMMSE kernel's triangular inverse: a short last block
    ("K4-N20-M24", "configs/default.cfg", "K = 4\nN = 20\nM = 24"),
    # the only variant with N above 64, where a random pattern's per-trial
    # N x N posterior and the scaling-factor prior are large
    ("K4-N256-M32", "configs/default.cfg", "K = 4\nN = 256\nM = 32"),
)


def export(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_python(side: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run `python ARGS` from the tree `side`, with its `src` on the path and
    one BLAS thread, capturing its output."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, cwd=side, check=check, capture_output=True)


def run_irsce(side: Path, out: Path, *args: str) -> bytes:
    """Run `irsce ARGS --out OUT` from the tree `side`; returns the bytes it wrote."""
    run_python(side, "-m", "irsce.cli", *args, "--out", str(out))
    return out.read_bytes()


def scheme_ids(side: Path) -> tuple[str, ...]:
    """The scheme ids the tree `side` knows, in its order."""
    out = run_python(side, "-c", "from irsce.config import SCHEMES; print(','.join(SCHEMES))").stdout
    return tuple(out.decode().strip().split(","))


def run_both(base: Path, name: str, what: str, run) -> tuple | None:
    """`run(root, side)` on the base side and on the working tree, or None
    after printing the "run failed" report of the first run that fails,
    naming `name` (a variant), the side and `what` ran."""
    outputs = []
    for side, root in (("base", base), ("new", ROOT)):
        try:
            outputs.append(run(root, side))
        except subprocess.CalledProcessError as e:
            print(f"run failed: {name}, {side} side ({root}), {what}, exit status {e.returncode}\n"
                  f"{e.stderr.decode(errors='replace')}")
            return None
    return outputs[0], outputs[1]


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
    schedules: dict[tuple[str, str], bool] = {}
    workers: dict[str, bool] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        export(args.base, base)
        ids = run_both(base, "scheme ids", "the id query", lambda root, side: scheme_ids(root))
        if ids is None:
            return 2
        base_ids, new_ids = ids
        schemes = [s for s in new_ids if s in base_ids]
        one_side = ([f"base {s}" for s in base_ids if s not in new_ids]
                    + [f"new {s}" for s in new_ids if s not in base_ids])
        print(f"base {args.base} vs working tree {ROOT}, {TRIALS} trials, schemes {','.join(schemes)}")
        for name, cfg_rel, extra in VARIANTS:
            text = (ROOT / cfg_rel).read_text() + "\n" + extra + "\n"
            cfg = tmp / f"{name}.cfg"
            cfg.write_text(text)
            new_csvs = set()
            for n in THREADS:
                run_args = ("run", "--config", str(cfg), "--trials", str(TRIALS),
                            "--scheme", ",".join(schemes), "--threads", str(n))
                csvs = run_both(base, name, f"--threads {n}",
                                lambda root, side: run_irsce(root, tmp / f"{side}.csv", *run_args))
                if csvs is None:
                    return 2
                a, b = csvs
                new_csvs.add(b)
                ha, hb = hashlib.sha256(a).hexdigest(), hashlib.sha256(b).hexdigest()
                same = a == b
                differ |= not same
                print(f"{name} threads={n}: {'equal' if same else 'DIFFER'}\n  base {ha}\n  new  {hb}")
                for (col, scheme), move in rel_moves(a, b).items():
                    worst[col, scheme] = max(worst.get((col, scheme), (0.0, "")), (move, name))
                    if move:
                        print(f"  {col} moved by {move:.3g} ({scheme})")
            workers[name] = len(new_csvs) == 1
            differ |= not workers[name]
            for scheme in schemes:
                dump_args = ("schedule", "--config", str(cfg), "--scheme", scheme, "--phase", "all")
                dumps = run_both(base, name, f"schedule {scheme}",
                                 lambda root, side: run_irsce(root, tmp / f"{side}.csv", *dump_args))
                if dumps is None:
                    return 2
                a, b = dumps
                same = schedules[name, scheme] = a == b
                differ |= not same
                print(f"{name} schedule {scheme}: {'equal' if same else 'DIFFER'}")
                if not same:
                    print(f"  base {hashlib.sha256(a).hexdigest()}\n  new  {hashlib.sha256(b).hexdigest()}")
    moved = {key: where for key, where in sorted(worst.items()) if where[0]}
    print("largest relative move per column and scheme:", "none" if not moved else "")
    for (col, scheme), (move, name) in moved.items():
        print(f"  {col:12s} {scheme:20s} {move:.3g} ({name})")
    print(f"worker counts: {sum(workers.values())} of {len(workers)} variants give byte-identical CSVs")
    for name, same in workers.items():
        if not same:
            print(f"  {name}")
    print("scheme ids on one side only:", ", ".join(one_side) or "none")
    print(f"schedules: {sum(schedules.values())} of {len(schedules)} equal")
    for (name, scheme), same in schedules.items():
        if not same:
            print(f"  {name} {scheme}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
