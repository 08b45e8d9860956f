import csv

import numpy as np
import pytest

from irsce import ChannelModel, harness, phase2_reflections_random, scheme_key, schemes, selftest, substream
from irsce.cli import main
from irsce.config import SCHEMES


def test_plan_table_stdout(capsys):
    assert main(["plan", "--n", "32", "--k-max", "8", "--m", "8,32"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "K,M,proposed,benchmark"
    rows = {(int(k), int(m)): (int(p), int(b))
            for k, m, p, b in (line.split(",") for line in out[1:])}
    assert rows[(8, 32)] == (47, 264)
    assert rows[(1, 8)] == (33, 33)


@pytest.mark.parametrize("flag,value,field", [
    ("--m", "x", "m"), ("--m", "8,0", "m"), ("--m", "8,,32", "m"),
    ("--n", "0", "n"), ("--n", "x", "n"),
    ("--k-max", "0", "k_max"), ("--k-max", "-2", "k_max"), ("--k-max", "2.5", "k_max"),
])
def test_plan_rejects_bad_flag(capsys, flag, value, field):
    assert main(["plan", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ConfigError: config field '{field}':")


def test_plan_to_file(tmp_path):
    out = tmp_path / "plan.csv"
    assert main(["plan", "--k-max", "4", "--m", "8", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "K,M,proposed,benchmark"


def test_run_writes_csv(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nN = 2\nM = 2\ntrials = 3\nprior_draws = 1000\n")
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    with open(out) as f:
        recs = list(csv.DictReader(f))
    assert len(recs) == 1
    assert recs[0]["scheme"] == "proposed-lmmse"
    assert int(recs[0]["seed"]) == 9


def test_run_impossible_geometry_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("user_center_d_bs_m = 300\n")
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: InvalidGeometryError: "
                            "user-center distances are incompatible with the BS-IRS distance\n")


def test_run_integer_flags_parse_as_config_files_do(tmp_path, capsys):
    # `trials = 2e0` in a config file means 2 trials, and so does the flag
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nN = 2\nM = 2\nprior_draws = 1000\n")
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--trials", "2e0", "--seed", "7e0"]) == 0
    with open(out) as f:
        (rec,) = csv.DictReader(f)
    assert (rec["trials"], rec["seed"]) == ("2", "7")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad.csv"), "--trials", "2.5"]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: config field 'trials':")


@pytest.mark.parametrize("schemes", ["proposed-noiseless,benchmark", "proposed-noiseless, benchmark,"],
                         ids=["plain", "spaced-trailing-comma"])
def test_run_scheme_override(tmp_path, schemes):
    # the flag takes the same list syntax as the config file's `scheme` key
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nN = 2\nM = 2\ntrials = 2\nprior_draws = 1000\n")
    out = tmp_path / "res.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--scheme", schemes])
    assert code == 0
    with open(out) as f:
        schemes = [r["scheme"] for r in csv.DictReader(f)]
    assert schemes == ["proposed-noiseless", "benchmark"]


def test_run_rejects_repeated_scheme(tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert main(["run", "--out", str(out), "--scheme", "proposed-noiseless,proposed-noiseless"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: ConfigError: config field 'scheme': scheme 'proposed-noiseless' is listed more than once")
    assert not out.exists()


def test_run_csv_identical_across_thread_counts_at_default_dims(tmp_path):
    # the default scenario's dimensions with every scheme; the pool splits
    # the trials into one chunk per worker
    cfg = tmp_path / "d.cfg"
    cfg.write_text("K = 8\nN = 32\nM = 32\nprior_draws = 1000\ntrials = 6\n")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads,
                     "--scheme", ",".join(SCHEMES)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + len(SCHEMES)


def test_schedule_dump(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 3\nN = 3\nM = 2\nscheme = proposed-noiseless\n")
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--config", str(cfg), "--phase", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + tau3 slots

def test_schedule_dump_all_phases(tmp_path):
    out = tmp_path / "sched.csv"
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nN = 2\nM = 2\n")
    assert main(["schedule", "--config", str(cfg), "--phase", "all", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 + 2 + 1  # tau1 + tau2 + tau3 slots


def test_every_file_irsce_writes_has_one_format(tmp_path, capsys):
    # results, a schedule dump and the pilot-length table, to a file and to
    # stdout: every line ends in a bare newline and has its header's width
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 3\nN = 4\nM = 2\nscheme = proposed-noiseless\n")
    run, sched, plan = (tmp_path / f"{verb}.csv" for verb in ("run", "schedule", "plan"))
    assert main(["run", "--config", str(cfg), "--trials", "2", "--out", str(run)]) == 0
    assert main(["schedule", "--config", str(cfg), "--phase", "all", "--out", str(sched)]) == 0
    assert main(["plan", "--k-max", "4", "--m", "2,8", "--out", str(plan)]) == 0
    capsys.readouterr()
    assert main(["plan", "--k-max", "4", "--m", "2,8"]) == 0
    written = [run.read_bytes(), sched.read_bytes(), plan.read_bytes(), capsys.readouterr().out.encode()]
    assert written[3] == written[2]
    for data, rows in zip(written, (1, 3 + 4 + 4, 8, 8)):  # tau3 = max(K-1, (K-1)N/M)
        assert b"\r" not in data and data.endswith(b"\n")
        header, *lines = data[:-1].split(b"\n")
        assert len(lines) == rows
        assert all(line.count(b",") == header.count(b",") for line in lines)


def test_empty_schedule_dump_is_its_header(tmp_path):
    # with K = 1 no scheme has a Phase III, so its dump is the header alone
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 1\nN = 2\nM = 2\n")
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--config", str(cfg), "--phase", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == b"slot,a1_re,a1_im,phi1_re,phi1_im,phi2_re,phi2_im\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_schedule_rejects_several_schemes(tmp_path, capsys, source):
    # a schedule is one scheme's: two selected schemes fail, naming both,
    # rather than dumping the first
    cfg = tmp_path / "s.cfg"
    flags = []
    if source == "flag":
        cfg.write_text("K = 3\nN = 3\nM = 2\n")
        flags = ["--scheme", "proposed-lmmse,benchmark"]
    else:
        cfg.write_text("K = 3\nN = 3\nM = 2\nscheme = proposed-lmmse, benchmark\n")
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--config", str(cfg), *flags, "--phase", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: config field 'scheme':")
    assert "proposed-lmmse" in err and "benchmark" in err
    assert not out.exists()


def test_schedule_computes_no_statistics(tmp_path, monkeypatch):
    # a schedule dump places no user and builds no channel model, let alone
    # second-moment statistics
    def fail(*args, **kwargs):
        raise AssertionError("schedule dump computed a channel model or statistics")

    monkeypatch.setattr(schemes, "reflected_gram", fail)
    monkeypatch.setattr(schemes, "estimate_lambda_priors", fail)
    monkeypatch.setattr(harness, "place_users", fail)
    monkeypatch.setattr(ChannelModel, "of", fail)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 3\nN = 5\nM = 2\nseed = 4\n")
    for scheme in SCHEMES:
        out = tmp_path / f"{scheme}.csv"
        assert main(["schedule", "--config", str(cfg), "--scheme", scheme,
                     "--phase", "all", "--out", str(out)]) == 0

    # phase2-random dumps the reflections of repetition 0, trial 0
    K, N, tau1, tau2 = 3, 5, 3, 5
    with open(tmp_path / "phase2-random.csv") as f:
        rows = list(csv.reader(f))[1 + tau1:1 + tau1 + tau2]
    phi = np.array([[complex(float(r[1 + 2 * K + 2 * n]), float(r[2 + 2 * K + 2 * n]))
                     for n in range(N)] for r in rows]).T
    expected = phase2_reflections_random(
        N, tau2, substream(4, scheme_key("phase2-random"), 0, 0, harness.TAG_SCHEDULE))
    np.testing.assert_allclose(phi, expected, atol=1e-11)


def test_error_line_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = 0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert "'K'" in err


def test_selftest_exit_status(monkeypatch, capsys):
    def broken():
        raise AssertionError("identity off by 1e-3")

    passing = ("holds", lambda: "identity exact")
    monkeypatch.setattr(selftest, "CHECKS", (passing, ("breaks", broken)))
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] holds: identity exact", "[FAIL] breaks: AssertionError: identity off by 1e-3"]
    monkeypatch.setattr(selftest, "CHECKS", (passing,))
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == "[PASS] holds: identity exact\n"
