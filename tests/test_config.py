import sys
from pathlib import Path

import numpy as np
import pytest

from irsce import ScenarioConfig, load_config, parse_config_text, path_loss, place_users, substream
from irsce.config import _PARSERS, SCHEMES
from irsce.errors import ConfigError, InvalidGeometryError
from irsce.model import PathLossSpec
from irsce.schemes import SCHEME_TABLE


class TestParse:
    def test_empty_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == ScenarioConfig()
        assert (cfg.K, cfg.N, cfg.M) == (8, 32, 8 * 4)
        assert cfg.power_dbm == 33.0
        assert cfg.noise_psd_dbm_hz == -169.0
        assert cfg.d_bs_irs_m == 100.0

    def test_default_file_sets_every_key_to_its_default(self):
        # README shows the defaults in configs/default.cfg: the file names
        # every key once and parses to exactly the built-in defaults
        path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in path.read_text().splitlines()]
        keys = [k for k in keys if k]
        assert sorted(keys) == sorted(_PARSERS)
        assert load_config(path) == ScenarioConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nK = 4  # trailing\n")
        assert cfg.K == 4

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("K = 0")
        assert exc.value.field == "K"

    @pytest.mark.parametrize("line", ["trials = inf", "K = 1e400", "seed = -inf", "power_dbm = inf",
                                      "noise_psd_dbm_hz = nan", "d0_m = inf"])
    def test_non_finite_integer_rejected(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError) as exc:
            parse_config_text(line)
        assert exc.value.field == key

    @pytest.mark.parametrize("line", ["power_dbm = 4000", "beta0_db = 4000", "noise_psd_dbm_hz = -4000",
                                      "d0_m = 1e-300"])
    def test_extreme_finite_db_values_rejected(self, line):
        # finite, but the linear power, noise power or path loss they give
        # overflows or underflows
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError) as exc:
            parse_config_text("K = 2\nN = 2\nM = 2\n" + line)
        assert exc.value.field == key

    def test_integer_parsed_exactly(self):
        # 2**53 + 1 has no float64 representation
        assert parse_config_text("trials = 9007199254740993").trials == 9007199254740993
        assert parse_config_text("trials = 1e3").trials == 1000
        assert parse_config_text("seed = 4294967295").seed == 2**32 - 1

    @pytest.mark.parametrize("line", ["seed = 4294967297", "seed = -1", "seed = 9007199254740993"])
    def test_seed_outside_32_bits_rejected(self, line):
        # stream derivation masks seeds to 32 bits: 2**32 + 1 would alias 1
        # and -1 would alias 2**32 - 1
        with pytest.raises(ConfigError) as exc:
            parse_config_text(line)
        assert exc.value.field == "seed"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("users = 4")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("K 4")

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("scheme = proposed-lmmse, nonsense")
        assert exc.value.field == "scheme"

    def test_repeated_scheme_rejected(self):
        with pytest.raises(ConfigError, match="'benchmark' is listed more than once") as exc:
            parse_config_text("scheme = benchmark, proposed-lmmse, benchmark")
        assert exc.value.field == "scheme"

    def test_scheme_list(self):
        cfg = parse_config_text("scheme = proposed-lmmse, benchmark")
        assert cfg.schemes == ("proposed-lmmse", "benchmark")

    def test_all_schemes_accepted(self):
        cfg = parse_config_text("scheme = " + ",".join(SCHEMES))
        assert cfg.schemes == SCHEMES

    def test_readme_scheme_table_is_the_scheme_table(self):
        # README's table under "### Schemes" lists every id of SCHEME_TABLE,
        # in its order, and nothing else
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = text.split("\n### Schemes\n", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")]
        assert tuple(cell.strip("`") for cell in rows[2:]) == tuple(SCHEME_TABLE)

    def test_minimum_keyword(self):
        cfg = parse_config_text("tau1 = minimum\ntau2 = 64\n")
        assert cfg.tau1 is None and cfg.tau2 == 64

    def test_correlation_bound(self):
        with pytest.raises(ConfigError):
            parse_config_text("corr_irs_user = 1.0")

    def test_alpha_override_roundtrip(self):
        # explicit override must flow through to path_loss output
        cfg = parse_config_text("K = 1\nalpha_direct = 3.0\nuser_radius_m = 0\n")
        d_bu, d_iu = place_users(cfg, substream(cfg.seed, 0, 101))
        loss = PathLossSpec(cfg.beta0_db, cfg.d0_m, d_bu, d_iu, cfg.d_bs_irs_m,
                            cfg.alpha_direct, cfg.alpha_irs_user, cfg.alpha_bs_irs)
        beta_bu, _, _ = path_loss(loss)
        np.testing.assert_allclose(beta_bu[0], 1e-2 * 105.0 ** (-3.0), rtol=1e-12)

    def test_worker_processes_only_on_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert parse_config_text("threads = 1").threads == 1
        with pytest.raises(ConfigError) as err:
            parse_config_text("threads = 2")
        assert err.value.field == "threads"

    def test_unparseable_number_rejected(self):
        with pytest.raises(ConfigError, match=r"cannot parse number from 'abc'") as exc:
            parse_config_text("power_dbm = abc")
        assert exc.value.field == "power_dbm"

    def test_string_keys_parsed(self):
        cfg = parse_config_text("extra_policy = phaseI\nphase3_g1 = perfect\n")
        assert (cfg.extra_policy, cfg.phase3_g1) == ("phaseI", "perfect")

    def test_bool_parse(self):
        assert parse_config_text("r_var_n_factor = off").r_var_n_factor is False
        assert parse_config_text("r_var_n_factor = on").r_var_n_factor is True
        with pytest.raises(ConfigError):
            parse_config_text("r_var_n_factor = maybe")


class TestPlaceUsers:
    def test_zero_radius_center_distances(self):
        cfg = parse_config_text("K = 3\nuser_radius_m = 0\n")
        d_bu, d_iu = place_users(cfg, substream(1))
        np.testing.assert_allclose(d_bu, 105.0, rtol=1e-12)
        np.testing.assert_allclose(d_iu, 10.0, rtol=1e-12)

    def test_incompatible_center_distances_rejected(self):
        # no point lies 300 m from the BS and 10 m from an IRS 100 m away
        cfg = parse_config_text("user_center_d_bs_m = 300")
        with pytest.raises(InvalidGeometryError, match="incompatible with the BS-IRS distance"):
            place_users(cfg, substream(1))

    def test_seeded_determinism(self):
        cfg = ScenarioConfig().validate()
        a = place_users(cfg, substream(5))
        b = place_users(cfg, substream(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_distances_within_disc_bounds(self):
        cfg = parse_config_text("K = 64")
        for seed in range(160):  # ~10^4 user draws
            d_bu, d_iu = place_users(cfg, substream(seed))
            assert np.all(d_iu >= 5.0 - 1e-9) and np.all(d_iu <= 15.0 + 1e-9)
            assert np.all(d_bu >= 100.0 - 1e-9) and np.all(d_bu <= 110.0 + 1e-9)

    def test_mean_distance_geometric_oracle(self):
        # users are uniform on the disc, so E[distance to the disc center] is
        # 2R/3; distances to the far BS concentrate near the center distance
        cfg = parse_config_text("K = 64")
        rng = substream(77)
        d_iu_all = []
        for seed in range(160):
            _, d_iu = place_users(cfg, substream(700 + seed))
            d_iu_all.append(d_iu)
        d = np.concatenate(d_iu_all)
        assert 9.0 < np.mean(d) < 11.0
