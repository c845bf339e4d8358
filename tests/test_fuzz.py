"""Seeded fuzz of the command line: hostile values for every config key.

Every key of the INI schema gets each value of ``VALUES``, alone and in
seeded random pairs (standard-library ``random``), through ``cli_main``
in-process: as ``thresholds`` at 32^2 and as ``run`` at 16^2 for two
steps. Bad input exits 2 and a blow-up exits 3; nothing else may escape.

A Grashof number of ``1e308`` is accepted and reads ``inf``: the force's
norm overflows in ``spectral.weighted_power`` with a ``RuntimeWarning``,
which these cases assert, alone. They are left out of the loops and the
random pairs: there the warning is an error, and in a pair another value
may stop the run before the force is built.
"""

import random

import pytest

from twinflow.cli import cli_main
from twinflow.config import _SCHEMA

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", "", "abc", "[1]"]
KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
GRASHOF_OVERFLOW = ["forcing.grashof=1e308", "forcing2.grashof=1e308"]
# every key and value but the two above, alone and in 100 seeded pairs
SINGLES = [item for item in (f"{key}={value}" for key in KEYS for value in VALUES)
           if item not in GRASHOF_OVERFLOW]
_rnd = random.Random(2026)
CASES = [[item] for item in SINGLES] + [_rnd.sample(SINGLES, 2) for _ in range(100)]


def thresholds_argv(overrides):
    argv = ["thresholds", "--preset", "desk", "--set", "sim.resolution=32",
            "--set", "intertwinement.cutoff=8"]
    for item in overrides:
        argv += ["--set", item]
    return argv


def run_argv(overrides, out):
    # two steps of the desk dt, from a two-step spin-up
    argv = ["run", "--preset", "desk", "--set", "sim.resolution=16",
            "--set", "intertwinement.cutoff=3", "--set", "sim.t_end=0.01",
            "--set", "experiment.spinup_time=0.01",
            "--set", "experiment.decorrelate_time=0.01", "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    return argv


def test_thresholds_exit_0_or_2(capsys):
    assert cli_main(thresholds_argv([])) == 0
    for overrides in CASES:
        assert cli_main(thresholds_argv(overrides)) in (0, 2), overrides
    capsys.readouterr()


def test_run_exits_0_2_or_3(capsys, tmp_path):
    assert cli_main(run_argv([], tmp_path / "out")) == 0
    for overrides in CASES:
        assert cli_main(run_argv(overrides, tmp_path / "out")) in (0, 2, 3), overrides
    capsys.readouterr()


@pytest.mark.parametrize("override", GRASHOF_OVERFLOW)
def test_grashof_overflow_reads_inf(capsys, override):
    with pytest.warns(RuntimeWarning):
        assert cli_main(thresholds_argv([override])) == 0
    report = dict(line.split() for line in capsys.readouterr().out.splitlines())
    grashof = "grashof_1" if override.startswith("forcing.") else "grashof_2"
    assert report[grashof] == "inf" and report["cutoff_ok"] == "no"


@pytest.mark.parametrize("override", GRASHOF_OVERFLOW)
def test_grashof_overflow_run_blows_up(capsys, tmp_path, override):
    with pytest.warns(RuntimeWarning):
        assert cli_main(run_argv([override], tmp_path / "out")) == 3
    assert "blow-up" in capsys.readouterr().err
