"""Scenario configuration: flat key-value files with validated defaults.

The file format is one `key = value` pair per line, `#` comments, blank lines
ignored, lists comma-separated. Every key is optional; omitted keys take the
defaults below (32-element IRS, 33 dBm transmit power over 1 MHz against
-169 dBm/Hz noise, -20 dB reference path loss, users on a 5 m disc whose
center sits 10 m from the IRS and 105 m from the BS).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .schemes import DEFAULT_SCHEMES, SCHEMES

EXTRA_POLICIES = ("phaseI", "phaseII", "even")

PHASE3_G1_MODES = ("estimated", "perfect")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated Monte-Carlo scenario."""

    K: int = 8
    N: int = 32
    M: int = 32
    tau1: int | None = None          # None = phase minimum
    tau2: int | None = None
    tau3: int | None = None
    extra_slots: int = 0
    extra_policy: str = "phaseII"
    power_dbm: float = 33.0
    bandwidth_hz: float = 1e6
    noise_psd_dbm_hz: float = -169.0
    beta0_db: float = -20.0
    d0_m: float = 1.0
    d_bs_irs_m: float = 100.0
    user_center_d_irs_m: float = 10.0
    user_center_d_bs_m: float = 105.0
    user_radius_m: float = 5.0
    alpha_direct: float = 4.2
    alpha_irs_user: float = 2.1
    alpha_bs_irs: float = 2.2
    corr_bs_direct: float = 0.5
    corr_bs_reflect: float = 0.5
    corr_irs_reflect: float = 0.5
    corr_irs_user: float = 0.5
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    trials: int = 100
    seed: int = 1
    threads: int = 1
    repetitions: int = 1
    r_var_n_factor: bool = True
    prior_draws: int = 10_000
    prior_cap_scale: float = 10.0
    phase3_g1: str = "estimated"

    def validate(self) -> "ScenarioConfig":
        def require(cond: bool, field: str, msg: str):
            if not cond:
                raise ConfigError(field, msg)

        for f in fields(self):
            # an infinite cap keeps every prior draw
            if f.type == "float" and f.name != "prior_cap_scale":
                require(math.isfinite(getattr(self, f.name)), f.name, "must be finite")
        for name in ("K", "N", "M"):
            require(getattr(self, name) >= 1, name, "must be a positive integer")
        for name in ("tau1", "tau2", "tau3"):
            v = getattr(self, name)
            require(v is None or v >= 1, name, "must be a positive integer or omitted")
        require(self.extra_slots >= 0, "extra_slots", "must be nonnegative")
        require(self.extra_policy in EXTRA_POLICIES, "extra_policy", f"must be one of {EXTRA_POLICIES}")
        for name in ("bandwidth_hz", "d0_m", "d_bs_irs_m", "user_center_d_irs_m",
                     "user_center_d_bs_m", "alpha_direct", "alpha_irs_user", "alpha_bs_irs"):
            require(getattr(self, name) > 0, name, "must be positive")
        require(self.user_radius_m >= 0, "user_radius_m", "must be nonnegative")
        # The linear link budget and path losses the model derives from these
        # keys, as powers of ten, must be finite and positive; a finite dB
        # value or distance ratio can still overflow or underflow there.
        for name, exp10, what in (
            ("power_dbm", (self.power_dbm - 30.0) / 10.0, "transmit power p"),
            ("noise_psd_dbm_hz", (self.noise_psd_dbm_hz - 30.0) / 10.0, "noise density"),
            ("bandwidth_hz", (self.noise_psd_dbm_hz - 30.0) / 10.0 + math.log10(self.bandwidth_hz),
             "noise power sigma^2"),
            ("beta0_db", self.beta0_db / 10.0, "reference path loss beta0"),
        ):
            require(_finite_positive_power(exp10), name,
                    f"must give a finite, positive {what}, not 10^{exp10:.6g}")
        for d_name, alpha_name in (("d_bs_irs_m", "alpha_bs_irs"), ("user_center_d_bs_m", "alpha_direct"),
                                   ("user_center_d_irs_m", "alpha_irs_user")):
            d, alpha = getattr(self, d_name), getattr(self, alpha_name)
            log_ratio = math.log10(d) - math.log10(self.d0_m)
            exp10 = self.beta0_db / 10.0 - alpha * log_ratio
            # blame the factor of (d / d0)^-alpha farthest from 1 in log terms
            culprit = (alpha_name if alpha >= abs(log_ratio)
                       else d_name if abs(math.log10(d)) >= abs(math.log10(self.d0_m)) else "d0_m")
            require(_finite_positive_power(exp10), culprit, "must give a finite, positive path loss "
                    f"beta0 (d/d0)^-alpha over {d_name}, not 10^{exp10:.6g}")
        for name in ("corr_bs_direct", "corr_bs_reflect", "corr_irs_reflect", "corr_irs_user"):
            require(abs(getattr(self, name)) < 1, name, "must have modulus below 1")
        for s in self.schemes:
            require(s in SCHEMES, "scheme", f"unknown scheme {s!r}; known: {SCHEMES}")
            require(self.schemes.count(s) == 1, "scheme", f"scheme {s!r} is listed more than once")
        require(len(self.schemes) >= 1, "scheme", "at least one scheme is required")
        require(self.trials >= 1, "trials", "must be at least 1")
        # seeds enter 32-bit stream derivation paths, so wider values would alias
        require(0 <= self.seed < 2**32, "seed", "must be in [0, 2**32)")
        require(self.threads >= 1, "threads", "must be at least 1")
        # trial workers are forked (os.fork): Windows has no fork, and macOS's
        # system libraries, its BLAS among them, are unsafe in a forked child
        require(self.threads == 1 or sys.platform.startswith("linux"), "threads",
                f"worker processes are forked, which is supported only on Linux, not {sys.platform}")
        require(self.repetitions >= 1, "repetitions", "must be at least 1")
        require(self.prior_draws >= 1000, "prior_draws", "must be at least 1000")
        require(self.prior_cap_scale > 0, "prior_cap_scale", "must be positive")
        require(self.phase3_g1 in PHASE3_G1_MODES, "phase3_g1", f"must be one of {PHASE3_G1_MODES}")
        return self


def _finite_positive_power(exp10: float) -> bool:
    """Whether 10^exp10 is a finite, positive float."""
    try:
        return 0.0 < 10.0 ** exp10 < math.inf
    except OverflowError:
        return False


def _parse_bool(field: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ConfigError(field, f"cannot parse boolean from {raw!r}")


def _parse_int(field: str, raw: str) -> int:
    """An integer literal, parsed exactly, or an integral float form such as 1e3."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
        if value.is_integer():  # False for inf and nan
            return int(value)
    except ValueError:
        pass
    raise ConfigError(field, f"cannot parse integer from {raw!r}")


def _parse_optional_int(field: str, raw: str) -> int | None:
    if raw.strip().lower() in ("minimum", "min", "none"):
        return None
    return _parse_int(field, raw)


def _parse_float(field: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(field, f"cannot parse number from {raw!r}") from exc


def _parse_schemes(field: str, raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _parse_str(field: str, raw: str) -> str:
    return raw.strip()


# a field's parser follows from its annotation; the `schemes` field is
# spelled `scheme` in config files
_PARSE_BY_TYPE = {
    "int": _parse_int, "int | None": _parse_optional_int, "float": _parse_float,
    "bool": _parse_bool, "str": _parse_str, "tuple[str, ...]": _parse_schemes,
}

_PARSERS = {
    ("scheme" if f.name == "schemes" else f.name): (f.name, _PARSE_BY_TYPE[f.type])
    for f in fields(ScenarioConfig)
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse config text; unknown keys and malformed lines raise ConfigError."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(key, "unknown configuration key")
        field, parse = _PARSERS[key]
        overrides[field] = parse(key, raw)
    return replace(ScenarioConfig(), **overrides).validate()


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario file; an empty file yields all defaults."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())
