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
