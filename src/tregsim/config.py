"""Plain-text configuration files for the simulator.

INI-style sections with a strict schema: any key not listed below is
rejected with its full path.  Values keep the types of their defaults.
SCHEMA is the only place a default is written: a model dataclass field
that a key sets is declared with `setting`, which takes its default from
here, and `from_settings` builds the dataclass from loaded settings.
"""

import configparser
import math
from dataclasses import field, fields

from .errors import ConfigurationError

# section -> key -> default (None where the experiment computes a value)
SCHEMA = {
    "experiment": {"name": "", "seed": None},
    "output": {"dir": "out"},
    "array": {"rows": 9, "cols": 6, "t_ambient": 25.0},
    "devices": {
        "vg0": 1.156, "n_proc": 4.0, "t_ref": 300.0, "vbe_at_tref": 0.7,
        "r1": 1.5e6, "r2": 1.0e5, "mirror_ratio": 10.0,
        "bias_current_ratio": 3.0, "alpha": 0.18, "p_max": 0.27,
    },
    "mismatch": {
        "sigma_vbe": 1e-3, "sigma_r1": 0.01, "sigma_r2": 0.01,
        "sigma_mirror": 0.005,
    },
    "thermal": {"c_th": None, "g_amb": None, "g_lat": None},
    "madc": {
        "n_bits": 9, "f_clk": 10e6, "c_int": 30e-12,
        "v_full": 1.0, "pid_charge_scale": 8, "conversion_noise_counts": 0.3,
    },
    "pid": {"ts": 4.0, "kp": None, "ki": None, "kd": None},
    "pwm": {"duty_min": 0.04, "duty_max": 0.96, "tap_mismatch_sigma": 0.018},
    "regulation": {"setpoints": [35.0, 45.0, 55.0, 65.0], "plateau_s": 40.0,
                   "trace_conversions": False},
    "is_mode": {"f_lo": 0.1, "f_hi": 1e4, "points_per_decade": 10,
                "n_periods": 4, "amplitude": 0.01},
    "cpa": {"ph_lo": 5.0, "ph_hi": 9.0, "ph_steps": 9},
    "cv": {"v_low": -0.7, "v_high": 0.0, "scan_rate": 0.1},
    "snr": {"freq": 15.0, "amplitude": 400e-9, "n_samples": 16384},
    "oracle": {"n_draws": 100000, "n_tuples": 20, "n_steps": 1000},
    "spread": {"n_seeds": 10, "t_force": 50.0},
    "characterize": {"n_dies": 7, "t_lo": 20.0, "t_hi": 90.0, "t_step": 1.0},
}

# experiments whose results depend on random draws: a seed is mandatory
STOCHASTIC_EXPERIMENTS = {
    "characterize_sensor", "die_error_sweep", "channel_spread", "pwm_sweep",
    "madc_oracle", "pid_oracle", "regulation_steps",
}


def setting(key):
    """A dataclass field set by the config key "section.name", with its default."""
    section, name = key.split(".")
    return field(default=SCHEMA[section][name], metadata={"key": (section, name)})


def from_settings(cls, settings, **given):
    """A cls built from the settings of its `setting` fields; `given` fills
    the rest and replaces any setting it names."""
    values = {f.name: settings[f.metadata["key"][0]][f.metadata["key"][1]]
              for f in fields(cls) if "key" in f.metadata}
    values.update(given)
    return cls(**values)


def _parse_value(raw, default, path):
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"{path}: expected a boolean, got {raw!r}")
    if isinstance(default, list):
        try:
            values = [float(x) for x in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigurationError(f"{path}: expected numbers, got {raw!r}")
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError(f"{path}: expected finite numbers, got {raw!r}")
        return values
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(f"{path}: expected an integer, got {raw!r}")
    if isinstance(default, float) or default is None:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigurationError(f"{path}: expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"{path}: expected a finite number, got {raw!r}")
        return value
    return raw


def _syntax_error(exc):
    """The line of a configparser error, what is wrong there and, where
    configparser names one, its section.key."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: duplicate key {exc.section}.{exc.option}"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: expected key = value"
    return exc.message


def load_config(path, seed=None):
    """Parse and validate a config file into a nested dict of settings.

    A % in a value is literal.  seed, when given, replaces experiment.seed
    before it is checked.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}, {_syntax_error(exc)}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    settings = {sec: dict(keys) for sec, keys in SCHEMA.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"unknown key {section}.{key}")
            if section == "experiment" and key == "name":
                settings[section][key] = raw.strip()
            elif section == "experiment" and key == "seed":
                try:
                    settings[section][key] = int(raw)
                except ValueError:
                    raise ConfigurationError(f"experiment.seed: expected an integer, got {raw!r}")
            elif section == "output" and key == "dir":
                settings[section][key] = raw.strip()
            else:
                settings[section][key] = _parse_value(raw, SCHEMA[section][key],
                                                      f"{section}.{key}")
    if seed is not None:
        settings["experiment"]["seed"] = seed
    name = settings["experiment"]["name"]
    if not name:
        raise ConfigurationError("experiment.name is required")
    if name in STOCHASTIC_EXPERIMENTS and settings["experiment"]["seed"] is None:
        raise ConfigurationError(f"experiment.seed is required for {name}")
    if settings["experiment"]["seed"] is None:
        settings["experiment"]["seed"] = 0
    return settings
