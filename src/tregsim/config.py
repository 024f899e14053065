"""Plain-text configuration files for the simulator.

INI-style sections with a strict schema: any key not listed below is
rejected with its full path.  Values keep the types of their defaults.
One table is the only place a key's default and its own rule are
written; SCHEMA and RULES read them from it.  A model dataclass field
that a key sets is declared with `setting`, which takes its default from
here, `from_settings` builds the dataclass from loaded settings, and
`check_fields` applies its fields' rules whenever it is built.
"""

import configparser
import io
import math
from dataclasses import field, fields
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

# the bounds that the model also reads: the shortest PID period (s), on which the default
# tuning does not divide by zero, and the ranges of the setpoints (degC) and IS (Hz)
MIN_PID_PERIOD = 1e-3
SETPOINT_RANGE = (20.0, 90.0)
IS_FREQ_RANGE = (0.1, 10e3)
INF = math.inf


class Rule(NamedTuple):
    """A key's own rule: its kind, the interval lo..hi with each end "["
    "]" closed or "(" ")" open, and its unit.  A "whole" value is a whole
    number in the interval, a "real" one any number in it, and a "list"
    one or more numbers, each in it.  None, a value the model computes,
    keeps every rule."""

    kind: str
    lo: float
    hi: float = INF
    ends: str = "[)"
    unit: str = ""

    def __str__(self):
        """The rule as a message states it, e.g. "a whole number in [1, inf)"."""
        kind = {"whole": "a whole number ", "list": "one or more values, each "}.get(self.kind, "")
        return f"{kind}in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]} {self.unit}".rstrip()

    def admits(self, value):
        """Whether value keeps the rule: NaN fails every comparison, and an
        infinite end is open."""
        if self.kind == "list":
            return len(value) > 0 and all(map(self._inside, value))
        return (self.kind != "whole" or isinstance(value, (int, np.integer))
                or isinstance(value, float) and value.is_integer()) and self._inside(value)

    def _inside(self, x):
        return ((self.lo < x if self.ends[0] == "(" else self.lo <= x)
                and (x < self.hi if self.ends[1] == ")" else x <= self.hi))


_whole = partial(Rule, "whole")                  # _whole(1): a whole number >= 1
_positive = partial(Rule, "real", 0, INF, "()")  # _positive("Hz"): above 0 Hz
_setpoint = Rule("real", *SETPOINT_RANGE, "[]", "degC")

# section -> key -> its default (None where the model computes a value),
# or (default, rule) for a key with a rule of its own; the rules that tie
# keys together stay where the keys meet
_TABLE = {
    "experiment": {"name": "", "seed": (None, _whole(0))},
    "output": {"dir": "out"},
    "array": {"rows": (9, _whole(1)), "cols": (6, _whole(1)), "t_ambient": 25.0},
    "devices": {
        "vg0": 1.156, "n_proc": (4.0, _positive()),
        "t_ref": (300.0, Rule("real", 200, 400, "[]", "K")),
        "vbe_at_tref": (0.7, _positive("V")), "r1": (1.5e6, _positive("ohm")),
        "r2": (1.0e5, _positive("ohm")), "mirror_ratio": (10.0, Rule("real", 1)),
        "bias_current_ratio": (3.0, Rule("real", 1, INF, "()")), "alpha": (0.18, _positive()),
        "p_max": (0.27, _positive("W"))},
    "mismatch": {"sigma_vbe": (1e-3, Rule("real", 0, INF, "[)", "V")),
                 "sigma_r1": (0.01, Rule("real", 0)), "sigma_r2": (0.01, Rule("real", 0)),
                 "sigma_mirror": (0.005, Rule("real", 0))},
    # a zero g_lat decouples the cells
    "thermal": {"c_th": (None, _positive("J/K")), "g_amb": (None, _positive("W/K")),
                "g_lat": (None, Rule("real", 0, INF, "[)", "W/K"))},
    "madc": {
        # 2**52: the widest counter whose every count float64 holds exactly
        "n_bits": (9, _whole(1, 52, "[]")), "f_clk": (10e6, _positive("Hz")),
        "c_int": (30e-12, _positive("F")), "v_full": (1.0, _positive("V")),
        "pid_charge_scale": (8, _whole(1)),
        "conversion_noise_counts": (0.3, Rule("real", 0, INF, "[)", "counts"))},
    "pid": {"ts": (4.0, Rule("real", MIN_PID_PERIOD, INF, "[)", "s")),
            "kp": None, "ki": None, "kd": None},
    "pwm": {"duty_min": (0.04, Rule("real", 0)), "duty_max": (0.96, Rule("real", 0, 1, "(]")),
            "tap_mismatch_sigma": (0.018, Rule("real", 0))},
    "regulation": {"setpoints": ([35.0, 45.0, 55.0, 65.0], _setpoint._replace(kind="list")),
                   "plateau_s": (40.0, _positive("s")), "trace_conversions": False},
    "is_mode": {"f_lo": (0.1, Rule("real", *IS_FREQ_RANGE, "[]", "Hz")),
                "f_hi": (1e4, Rule("real", *IS_FREQ_RANGE, "[]", "Hz")),
                "points_per_decade": (10, _whole(1)), "n_periods": (4, _whole(1)),
                "amplitude": (0.01, _positive("V"))},
    # a straight-line fit needs two points
    "cpa": {"ph_lo": 5.0, "ph_hi": 9.0, "ph_steps": (9, _whole(2))},
    "cv": {"v_low": -0.7, "v_high": 0.0, "scan_rate": (0.1, _positive("V/s"))},
    "snr": {"freq": (15.0, _positive("Hz")), "amplitude": (400e-9, _positive("A")),
            "n_samples": (16384, _whole(2))},
    "oracle": {"n_draws": (100000, _whole(1)), "n_tuples": (20, _whole(1)),
               "n_steps": (1000, _whole(1))},
    "spread": {"n_seeds": (10, _whole(1)), "t_force": (50.0, _setpoint)},
    "characterize": {"n_dies": (7, _whole(1)), "t_lo": (20.0, _setpoint),
                     "t_hi": (90.0, _setpoint), "t_step": (1.0, _positive("degC"))},
}
SCHEMA = {section: {key: entry[0] if isinstance(entry, tuple) else entry
                    for key, entry in keys.items()} for section, keys in _TABLE.items()}
# section.key -> its own rule
RULES = {f"{section}.{key}": entry[1] for section, keys in _TABLE.items()
         for key, entry in keys.items() if isinstance(entry, tuple)}


def check(key, value):
    """Reject value unless it keeps the rule of key ("section.name"): "key must
    be <rule>, got value".  A per-cell array is checked by its worst cell."""
    rule = RULES[key]
    if isinstance(value, np.generic):
        value = value.item()     # a numpy scalar prints as the plain number
    if isinstance(value, np.ndarray):
        low = float(value.min())
        value = low if rule.hi == INF or not rule.admits(low) else float(value.max())
    if value is not None and not rule.admits(value):
        raise ConfigurationError(f"{key} must be {rule}, got {value!r}")


def checked(settings):
    """A copy of settings whose every key has kept its rule, whole numbers as ints."""
    out = {section: dict(keys) for section, keys in settings.items()}
    for key, rule in RULES.items():
        section, name = key.split(".")
        check(key, out[section][name])
        if rule.kind == "whole" and out[section][name] is not None:
            out[section][name] = int(out[section][name])
    return out


def setting(key):
    """A dataclass field set by the config key "section.name", with its default."""
    section, name = key.split(".")
    return field(default=SCHEMA[section][name], metadata={"key": (section, name)})


@cache
def _ruled_fields(cls):
    """(name, key) of each field of cls that a key with a rule sets."""
    keys = ((f.name, ".".join(f.metadata.get("key", ()))) for f in fields(cls))
    return [(name, key) for name, key in keys if key in RULES]


def check_fields(obj):
    """Apply its key's rule to each `setting` field of obj, a model dataclass."""
    for name, key in _ruled_fields(type(obj)):
        check(key, getattr(obj, name))


def from_settings(cls, settings, **given):
    """A cls built from the settings of its `setting` fields; `given` fills
    the rest and replaces any setting it names."""
    values = {f.name: settings[f.metadata["key"][0]][f.metadata["key"][1]]
              for f in fields(cls) if "key" in f.metadata}
    values.update(given)
    return cls(**values)


def _parse_value(raw, default, path):
    if isinstance(default, str):
        return raw.strip()
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"{path}: expected a boolean, got {raw!r}")
    if isinstance(default, list):
        return [_parse_value(x, 0.0, path) for x in raw.replace(",", " ").split()]
    whole = isinstance(default, int) or path in RULES and RULES[path].kind == "whole"
    try:
        value = int(raw) if whole else float(raw)
    except ValueError:
        raise ConfigurationError(f"{path}: expected {'an integer' if whole else 'a number'}, "
                                 f"got {raw!r}")
    if not whole and not math.isfinite(value):
        raise ConfigurationError(f"{path}: expected a finite number, got {raw!r}")
    return value


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

    The file is UTF-8 text, and a % in a value is literal.  seed, when
    given, replaces experiment.seed before it is checked.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError:
        raise ConfigurationError(f"cannot read config file {path}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}, byte {exc.start}: not UTF-8 text") from exc
    try:
        # universal newlines, as a file opened in text mode reads them
        parser.read_file(io.StringIO(text, newline=None), source=path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}, {_syntax_error(exc)}") from exc
    settings = {sec: dict(keys) for sec, keys in SCHEMA.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"unknown key {section}.{key}")
            settings[section][key] = _parse_value(raw, SCHEMA[section][key],
                                                  f"{section}.{key}")
    if seed is not None:
        settings["experiment"]["seed"] = seed
    if not settings["experiment"]["name"]:
        raise ConfigurationError("experiment.name is required")
    return settings
