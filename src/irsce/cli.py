"""Command-line interface.

Verbs:
  plan      minimum-pilot-length table over a (K, M) grid at fixed N
  run       Monte-Carlo MSE campaign, results to CSV
  schedule  dump one scheme's pilot/reflection schedule to CSV
  selftest  run the built-in invariant suite
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import _PARSERS, ScenarioConfig, _parse_int, load_config
from .errors import ConfigError
from .harness import emit_csv, phase_schedules, run_campaign
from .metrics import pilot_length_table
from .schedule import concat_schedules, schedule_to_csv
from .selftest import run_selftest


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig().validate()
    overrides = {}
    for key in ("seed", "trials", "threads", "scheme"):
        raw = getattr(args, key, None)
        if raw is not None:
            field, parse = _PARSERS[key]
            overrides[field] = parse(key, raw)
    if overrides:
        cfg = replace(cfg, **overrides).validate()
    return cfg


def _count(field: str, raw: str) -> int:
    """A `plan` flag's value: an integer of at least 1, parsed as config
    files parse integers."""
    value = _parse_int(field, raw)
    if value < 1:
        raise ConfigError(field, f"must be at least 1, got {value}")
    return value


def _cmd_plan(args) -> int:
    cfg = _load(args)
    n = _count("n", args.n) if args.n is not None else cfg.N
    k_values = range(1, _count("k_max", args.k_max) + 1)
    m_values = [_count("m", m) for m in args.m.split(",")]
    table = pilot_length_table(n, k_values, m_values)
    lines = ["K,M,proposed,benchmark"]
    lines += [f"{K},{M},{prop},{bench}" for K, M, prop, bench in table]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args)
    rows = run_campaign(cfg)
    emit_csv(rows, args.out, include_timing=args.timing)
    for row in rows:
        print(f"{row.scheme}: e2={row.e2:.6g} e3={row.e3:.6g} e_total={row.e_total:.6g}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_schedule(args) -> int:
    cfg = _load(args)
    if len(cfg.schemes) > 1:
        raise ConfigError("scheme", f"schedule dumps one scheme, got {', '.join(cfg.schemes)}")
    scheme, = cfg.schemes
    plan, *scheds = phase_schedules(cfg, scheme)
    sched = concat_schedules(*scheds) if args.phase == "all" else scheds[int(args.phase) - 1]
    schedule_to_csv(sched, args.out)
    print(f"wrote {scheme} phase-{args.phase} schedule "
          f"(tau1={plan.tau1}, tau2={plan.tau2}, tau3={plan.tau3}) to {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(verbose=True)
    return 0 if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irsce", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    plan = sub.add_parser("plan", help="minimum pilot-length table")
    plan.add_argument("--config", default=None)
    plan.add_argument("--n", default=None, help="IRS elements (default: config N)")
    plan.add_argument("--k-max", default="16")
    plan.add_argument("--m", default="8,32", help="comma-separated antenna counts")
    plan.add_argument("--out", default=None)
    plan.set_defaults(fn=_cmd_plan)

    run = sub.add_parser("run", help="Monte-Carlo MSE campaign")
    run.add_argument("--config", default=None)
    run.add_argument("--out", default="results.csv")
    run.add_argument("--seed", default=None)
    run.add_argument("--trials", default=None)
    run.add_argument("--scheme", default=None, help="comma-separated scheme ids")
    run.add_argument("--threads", default=None)
    run.add_argument("--timing", action="store_true", help="append a wallclock_s column")
    run.set_defaults(fn=_cmd_run)

    sched = sub.add_parser("schedule", help="dump a schedule to CSV")
    sched.add_argument("--config", default=None)
    sched.add_argument("--scheme", default=None, help="one scheme id")
    sched.add_argument("--phase", choices=("1", "2", "3", "all"), default="all")
    sched.add_argument("--out", default="schedule.csv")
    sched.set_defaults(fn=_cmd_schedule)

    st = sub.add_parser("selftest", help="run the invariant suite")
    st.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single machine-parsable error line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
