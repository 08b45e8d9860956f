"""`tools/csv_drift.py`'s per-column comparison, on CSV bytes built in place."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "csv_drift", Path(__file__).resolve().parent.parent / "tools" / "csv_drift.py")
csv_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_drift)
rel_moves = csv_drift.rel_moves


def table(*rows: str) -> bytes:
    return ("scheme,K,e1,e3\n" + "".join(r + "\n" for r in rows)).encode()


def test_equal_tables_move_nothing():
    a = table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.5,nan")
    assert all(move == 0.0 for move in rel_moves(a, a).values())


def test_relative_move_and_its_scheme():
    moves = rel_moves(table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.5,nan"),
                      table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.51,nan"))
    assert moves["e1", "benchmark"] == (0.51 - 0.5) / 0.5
    assert moves["e1", "proposed-lmmse"] == 0.0
    assert moves["e3", "benchmark"] == 0.0


def test_round_off_row_does_not_hide_another_scheme():
    # a large relative move of a value at round-off is reported under its
    # own scheme, next to the small move of a noisy scheme
    moves = rel_moves(table("proposed-noiseless,4,1e-30,1.9e-28", "proposed-lmmse,4,0.25,0.5"),
                      table("proposed-noiseless,4,1e-30,3e-28", "proposed-lmmse,4,0.25,0.5000001"))
    assert moves["e3", "proposed-noiseless"] > 0.5
    assert moves["e3", "proposed-lmmse"] == (0.5000001 - 0.5) / 0.5


def test_nan_to_number_is_an_infinite_move():
    assert rel_moves(table("benchmark,4,0.5,nan"), table("benchmark,4,0.5,0.5"))["e3", "benchmark"] == math.inf
    assert rel_moves(table("benchmark,4,0.5,0.5"), table("benchmark,4,0.5,nan"))["e3", "benchmark"] == math.inf


def test_move_from_zero_or_infinity_is_infinite():
    assert rel_moves(table("benchmark,4,0,1"), table("benchmark,4,1e-300,1"))["e1", "benchmark"] == math.inf
    assert rel_moves(table("benchmark,4,inf,1"), table("benchmark,4,1,1"))["e1", "benchmark"] == math.inf
    assert rel_moves(table("benchmark,4,inf,1"), table("benchmark,4,inf,1"))["e1", "benchmark"] == 0.0


def test_dropped_column_is_an_infinite_move():
    assert rel_moves(b"scheme,e1\nx,1\n", b"scheme\nx\n") == {("e1", "x"): math.inf}


def test_row_count_mismatch_is_a_difference():
    a = table("proposed-lmmse,4,0.25,nan")
    b = table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.5,nan")
    assert rel_moves(a, b)["rows", ""] == math.inf
    assert rel_moves(b, a)["rows", ""] == math.inf
    assert ("rows", "") not in rel_moves(a, a)


def test_failed_run_is_reported_and_exits_2(monkeypatch, capsys):
    # the base side's irsce names its ids but fails to run: the report names
    # the variant, the side and the worker count, shows the run's stderr,
    # and exits 2, not the 1 of a differing CSV
    def broken_export(rev, dest):
        package = fake_package(dest, ("proposed-lmmse",))
        (package / "cli.py").write_text('raise SystemExit("no irsce in this tree")\n')

    monkeypatch.setattr(csv_drift, "export", broken_export)
    monkeypatch.setattr(csv_drift, "VARIANTS", (("default", "configs/default.cfg", ""),))
    monkeypatch.setattr(csv_drift, "THREADS", (2,))
    assert csv_drift.main(["--base", "HEAD"]) == 2
    out = capsys.readouterr().out
    assert "run failed: default, base side" in out and "--threads 2" in out
    assert "no irsce in this tree" in out


def test_failed_id_query_is_reported_and_exits_2(monkeypatch, capsys):
    def broken_export(rev, dest):
        package = dest / "src" / "irsce"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('raise SystemExit("no irsce in this tree")\n')

    monkeypatch.setattr(csv_drift, "export", broken_export)
    assert csv_drift.main(["--base", "HEAD"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("run failed: scheme ids, base side") and "no irsce in this tree" in out


# `irsce` of a fake tree: `run` and `schedule` reject an id that the tree's
# own `config.SCHEMES` does not name, and write the scheme ids, after the
# `schedule` or the `run` branch's lines have run
FAKE_CLI = """import sys
from irsce.config import SCHEMES
args = sys.argv[1:]
scheme, out = args[args.index("--scheme") + 1], args[args.index("--out") + 1]
if not set(scheme.split(",")) <= set(SCHEMES):
    sys.exit(f"unknown scheme in {{scheme}}")
if args[0] == "schedule":
{schedule}
if args[0] == "run":
{run}
open(out, "w").write(scheme)
"""

IDS = ("proposed-lmmse", "benchmark")


def fake_package(root, ids):
    """A package `irsce` under root/src whose `config.SCHEMES` is `ids`."""
    package = root / "src" / "irsce"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "config.py").write_text(f"SCHEMES = {tuple(ids)!r}\n")
    return package


def fake_tree(root, schedule, ids=IDS, run="    pass"):
    (fake_package(root, ids) / "cli.py").write_text(FAKE_CLI.format(schedule=schedule, run=run))
    (root / "configs").mkdir()
    (root / "configs" / "default.cfg").write_text("")
    return root


def drift(monkeypatch, tmp_path, base_schedule, new_schedule, new_ids=IDS, run="    pass", threads=(1,)):
    monkeypatch.setattr(csv_drift, "ROOT", fake_tree(tmp_path / "new", new_schedule, new_ids, run))
    monkeypatch.setattr(csv_drift, "export", lambda rev, dest: fake_tree(dest, base_schedule, run=run))
    monkeypatch.setattr(csv_drift, "VARIANTS", (("v", "configs/default.cfg", ""),))
    monkeypatch.setattr(csv_drift, "THREADS", threads)
    return csv_drift.main(["--base", "HEAD"])


def test_differing_schedule_dump_is_reported_and_exits_1(monkeypatch, tmp_path, capsys):
    # equal CSVs, but the new side dumps a different benchmark schedule
    status = drift(monkeypatch, tmp_path, "    pass",
                   '    scheme = scheme.upper() if scheme == "benchmark" else scheme')
    assert status == 1
    out = capsys.readouterr().out
    assert "v threads=1: equal" in out
    assert "v schedule proposed-lmmse: equal\nv schedule benchmark: DIFFER\n  base " in out
    assert out.endswith("schedules: 1 of 2 equal\n  v benchmark\n")


def test_failed_schedule_dump_is_reported_and_exits_2(monkeypatch, tmp_path, capsys):
    status = drift(monkeypatch, tmp_path,
                   '    if scheme == "benchmark": sys.exit("no benchmark schedule")', "    pass")
    assert status == 2
    out = capsys.readouterr().out
    assert "run failed: v, base side" in out and "schedule benchmark" in out
    assert "no benchmark schedule" in out
    assert "schedules:" not in out


def test_id_only_on_the_new_side_is_listed_not_run(monkeypatch, tmp_path, capsys):
    # the base side's irsce rejects the new id, so running it there would
    # fail with exit 2
    status = drift(monkeypatch, tmp_path, "    pass", "    pass", new_ids=(*IDS, "phase2-dft-nodc"))
    assert status == 0
    out = capsys.readouterr().out
    assert ", 20 trials, schemes proposed-lmmse,benchmark\n" in out
    assert "phase2-dft-nodc" not in out.replace("scheme ids on one side only: new phase2-dft-nodc\n", "")
    assert out.endswith("scheme ids on one side only: new phase2-dft-nodc\nschedules: 2 of 2 equal\n")


def test_csvs_that_differ_between_worker_counts_are_reported_and_exit_1(monkeypatch, tmp_path, capsys):
    # both sides write their --threads value into the CSV: at each worker
    # count the new CSV equals the base's, but the working tree's CSVs
    # differ from one worker count to the other
    status = drift(monkeypatch, tmp_path, "    pass", "    pass",
                   run='    scheme += args[args.index("--threads") + 1]', threads=(1, 2))
    assert status == 1
    out = capsys.readouterr().out
    assert "v threads=1: equal" in out and "v threads=2: equal" in out
    assert ("largest relative move per column and scheme: none\n"
            "worker counts: 0 of 1 variants give byte-identical CSVs\n  v\n"
            "scheme ids on one side only: none\n") in out
    assert out.endswith("schedules: 2 of 2 equal\n")
