"""config.RULES, the table of each key's own rule: every bound is enforced
through the CLI, README's "Key rules" table states the same rules, and a
rejection states the value as a plain number."""

import itertools
import math
import pathlib

import numpy as np
import pytest

from rejections import CONFIG, Case, problems, write
from tregsim.cli import main
from tregsim.config import RULES, check
from tregsim.errors import ConfigurationError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def interval(rule):
    return f"{rule.ends[0]}{rule.lo:g}, {rule.hi:g}{rule.ends[1]}"


def just_outside(rule):
    """One value just outside each finite bound of rule: an open bound
    itself, a whole number one past a closed one, else the next float."""
    for bound, end, step in ((rule.lo, rule.ends[0], -1), (rule.hi, rule.ends[1], 1)):
        if math.isinf(bound):
            continue
        if end in "()":
            yield bound
        elif rule.kind == "whole":
            yield int(bound) + step
        else:
            yield math.nextafter(bound, step * math.inf)


def test_every_bound_exits_2_naming_its_key(tmp_path, monkeypatch, capsys):
    # a pwm_sweep config reads none of most keys: each rule holds anyway
    monkeypatch.chdir(tmp_path)
    cases = 0
    for key, rule in RULES.items():
        for value in just_outside(rule):
            case = Case(key, "pwm_sweep", {key: int(value) if rule.kind == "whole"
                                           else repr(float(value))}, (key,), "")
            write(case, tmp_path)
            code = main([CONFIG])
            err = capsys.readouterr().err
            assert problems(case, code, err, tmp_path) == [], (value, err)
            assert err.startswith(f"config error: {key} must be "), (key, value, err)
            cases += 1
    assert cases >= len(RULES)


def readme_key_rules():
    """README's "Key rules" table: key -> (kind, bounds, unit)."""
    text = README.read_text().split("### Key rules\n", 1)[1]
    rows = text[text.index("| key | kind | bounds | unit |"):].splitlines()[2:]
    return {key: (kind, bounds, unit)
            for key, kind, bounds, unit in (
                (cell.strip().strip("`") for cell in row.strip("|").split("|"))
                for row in itertools.takewhile(lambda row: row.startswith("|"), rows))}


def test_readme_key_rules_table_is_config_rules():
    assert readme_key_rules() == {key: (rule.kind, interval(rule), rule.unit)
                                  for key, rule in RULES.items()}


def test_check_prints_a_numpy_scalar_as_a_number():
    # a value computed in numpy is stated as the config would write it
    with pytest.raises(ConfigurationError, match=r"madc\.c_int .*, got inf$"):
        check("madc.c_int", np.float64(np.inf))
