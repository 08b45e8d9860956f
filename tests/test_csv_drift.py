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
    assert all(move == 0.0 for move, _ in rel_moves(a, a).values())


def test_relative_move_and_its_scheme():
    moves = rel_moves(table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.5,nan"),
                      table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.51,nan"))
    assert moves["e1"] == ((0.51 - 0.5) / 0.5, "benchmark")
    assert moves["e3"][0] == 0.0


def test_nan_to_number_is_an_infinite_move():
    assert rel_moves(table("benchmark,4,0.5,nan"), table("benchmark,4,0.5,0.5"))["e3"] == (math.inf, "benchmark")
    assert rel_moves(table("benchmark,4,0.5,0.5"), table("benchmark,4,0.5,nan"))["e3"] == (math.inf, "benchmark")


def test_move_from_zero_or_infinity_is_infinite():
    assert rel_moves(table("benchmark,4,0,1"), table("benchmark,4,1e-300,1"))["e1"][0] == math.inf
    assert rel_moves(table("benchmark,4,inf,1"), table("benchmark,4,1,1"))["e1"][0] == math.inf
    assert rel_moves(table("benchmark,4,inf,1"), table("benchmark,4,inf,1"))["e1"][0] == 0.0


def test_row_count_mismatch_is_a_difference():
    a = table("proposed-lmmse,4,0.25,nan")
    b = table("proposed-lmmse,4,0.25,nan", "benchmark,4,0.5,nan")
    assert rel_moves(a, b)["rows"][0] == math.inf
    assert rel_moves(b, a)["rows"][0] == math.inf
    assert "rows" not in rel_moves(a, a)
