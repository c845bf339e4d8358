import struct
import zlib

import numpy as np
import pytest

import twinflow as tf
from twinflow.cli import cli_main
from twinflow.config import write_config
from twinflow.experiment import read_series_csv
from twinflow.stepping import load_checkpoint, save_checkpoint

from conftest import random_psi, tiny_config
from test_experiment import blowup_config


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.ini"
    write_config(tiny_config(), path)
    return path


def test_thresholds_prints_symmetric_cutoff(capsys, config_file):
    # shared force with per-system grashof 10/sqrt(2) gives a pair
    # magnitude of 10, hence a cutoff bound of exactly 40
    code = cli_main(
        [
            "thresholds",
            "--config", str(config_file),
            "--set", "intertwinement.variant=symmetric_nudge",
            "--set", "intertwinement.mu1=50",
            "--set", "intertwinement.mu2=25",
            "--set", f"forcing.grashof={float(10 / np.sqrt(2))!r}",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    n_a = [line for line in out.splitlines() if line.startswith("n_a")]
    assert n_a and float(n_a[0].split()[-1]) == pytest.approx(40.0, rel=1e-12)


def test_run_missing_checkpoint_exits_2(capsys, tmp_path, config_file):
    code = cli_main(
        [
            "run",
            "--config", str(config_file),
            "--set", "experiment.init=checkpoints",
            "--set", f"experiment.checkpoint1={tmp_path / 'ghost.ckpt'}",
            "--set", f"experiment.checkpoint2={tmp_path / 'ghost.ckpt'}",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "ghost.ckpt" in capsys.readouterr().err


def test_run_blow_up_exits_3(capsys, tmp_path):
    config = tmp_path / "blowup.ini"
    write_config(blowup_config(), config)
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(config), "--out", str(out)])
    assert code == 3
    assert "blow-up" in capsys.readouterr().err
    assert (out / "series.csv").exists() and not (out / "final.ckpt").exists()


def test_run_writes_series(tmp_path, config_file):
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    series = read_series_csv(out / "series.csv")
    assert series and np.isfinite(series[-1].err_h)
    assert (out / "manifest.ini").exists()


def test_spinup_writes_checkpoint(tmp_path, config_file):
    out = tmp_path / "spin"
    code = cli_main(["spinup", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    cfg = tiny_config()
    state, dt = load_checkpoint(out / "base.ckpt", cfg.grid)
    assert dt == cfg.dt
    assert state.t == cfg.spinup_time
    assert state.step_index == int(round(cfg.spinup_time / cfg.dt)) > 0

    # a duration that is not a whole number of steps: the header carries the
    # clock of the two steps taken
    code = cli_main(["spinup", "--config", str(config_file), "--out", str(out),
                     "--set", "experiment.spinup_time=0.025", "--set", "sim.dt=0.01"])
    assert code == 0
    state, dt = load_checkpoint(out / "base.ckpt", cfg.grid)
    assert state.step_index == 2 and state.t == 2 * dt


def test_spinup_base_checkpoint_holds_the_last_rolling_one(tmp_path, config_file):
    # 50 steps with a rolling checkpoint every 25: base.ckpt holds the same
    # coefficients, byte for byte, as spinup_000000050.ckpt (the clocks in
    # the 40-byte headers may differ in the last bit; the CRC follows them)
    out = tmp_path / "spin"
    code = cli_main(["spinup", "--config", str(config_file),
                     "--set", "experiment.checkpoint_every=0.25", "--out", str(out)])
    assert code == 0
    last = sorted(out.glob("spinup_*.ckpt"))[-1]
    assert last.name == "spinup_000000050.ckpt"
    base, rolling = ((out / name).read_bytes()[40:-4] for name in ("base.ckpt", last.name))
    assert base == rolling


def test_coarse_spinup_ignores_cutoff(tmp_path):
    # desk's cutoff 20 lies beyond the 32^2 band, but a spin-up never reads it
    out = tmp_path / "spin"
    coarse = ["--preset", "desk", "--set", "sim.resolution=32"]
    code = cli_main(["spinup", *coarse, "--set", "experiment.spinup_time=0.02",
                     "--out", str(out)])
    assert code == 0
    state, _ = load_checkpoint(out / "base.ckpt", tf.SpectralGrid(32))
    assert state.step_index == 4


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--axis", "theta1", "--values", "0.5"], ["thresholds"]],
    ids=lambda c: c[0],
)
def test_cutoff_beyond_band_exits_2(capsys, tmp_path, command):
    out = tmp_path / "out"
    argv = [*command, "--preset", "desk", "--set", "sim.resolution=32"]
    if command[0] != "thresholds":
        argv += ["--out", str(out)]
    assert cli_main(argv) == 2
    assert "observation cutoff exceeds resolved band" in capsys.readouterr().err
    assert not out.exists()


def test_spinup_negative_duration_exits_2(capsys, tmp_path, config_file):
    out = tmp_path / "spin"
    code = cli_main(["spinup", "--config", str(config_file),
                     "--set", "experiment.spinup_time=-1", "--out", str(out)])
    assert code == 2
    assert "spinup_time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override, named",
    [("sim.dt=nan", "dt"), ("intertwinement.thetal=0.3", "thetal"), ("simm.dt=0.1", "simm"),
     ("DEFAULT.x=1", "DEFAULT")],
)
def test_bad_config_exits_2(capsys, tmp_path, config_file, override, named):
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(config_file), "--set", override,
                     "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def thresholds_at_32(overrides):
    argv = ["thresholds", "--preset", "desk", "--set", "sim.resolution=32",
            "--set", "intertwinement.cutoff=8"]
    for item in overrides:
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize(
    "overrides, named",
    [(["sim.nu=1e-200"], "nu^2"), (["sim.nu=1e308"], "nu^2"),
     (["sim.nu=1e-150"], "[forcing] force underflows to zero"),
     (["forcing.band_low=300", "forcing.band_high=400"], "[forcing] band holds no mode")],
    ids=["nu_underflows", "nu_overflows", "force_underflows", "band_outside_block"],
)
def test_out_of_range_input_exits_2(capsys, overrides, named):
    assert cli_main(thresholds_at_32(overrides)) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "overrides",
    [["experiment.c_lad=1e308"],
     ["experiment.c_sob=1e308", "intertwinement.variant=degenerate_sync"],
     ["experiment.c_lad=1e-200", "intertwinement.theta1=1"]],
    ids=["c_lad_mutual_sync", "c_sob_degenerate_sync", "c_agmon_over_tiny_c_lad"],
)
def test_threshold_overflow_reads_inf(capsys, overrides):
    # as an overflowing grashof does: the cutoff is inf, and no cutoff meets it
    assert cli_main(thresholds_at_32(overrides)) == 0
    out, err = capsys.readouterr()
    report = dict(line.split() for line in out.splitlines())
    assert report["n_star"] == "inf" and report["cutoff_ok"] == "no"
    assert "Traceback" not in err


def test_sweep_cli(tmp_path, config_file):
    out = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep",
            "--config", str(config_file),
            "--set", "sim.t_end=1.0",
            "--axis", "theta1",
            "--values", "0,1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("theta1,")
    assert len(summary) == 3


def test_sweep_values_apart_in_7th_digit_get_own_runs(capsys, tmp_path, config_file):
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", str(config_file), "--set", "sim.t_end=1.0",
                     "--axis", "theta1", "--values", "0.1234561,0.1234564",
                     "--out", str(out)])
    assert code == 0
    runs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert runs == ["theta1_0.1234561", "theta1_0.1234564"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "theta1=0.1234561", "theta1=0.1234564"
    ]


@pytest.mark.parametrize(
    "values, named",
    [("0.1,abc", "abc"), (",", "no values"), ("0.5,1,0.5", "repeated"),
     ("nan,nan", "repeated")],
)
def test_sweep_bad_values_exit_2(capsys, tmp_path, config_file, values, named):
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", str(config_file), "--axis", "theta1",
                     "--values", values, "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_subcommand(tmp_path, rng):
    grid = tf.SpectralGrid(32)
    psi = random_psi(grid, rng)
    ckpt = tmp_path / "state.ckpt"
    save_checkpoint(tf.PairState(psi, psi), 0.01, ckpt)
    out = tmp_path / "spec.csv"
    code = cli_main(["spectrum", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shell,energy"
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(tf.norm_hn(psi, 1) ** 2, rel=1e-12)


def test_spectrum_of_checkpoint_holding_nan_exits_2(capsys, tmp_path, rng):
    # a corrupt input, not a blow-up: the CRC is intact, no step runs
    n = 32
    psi = random_psi(tf.SpectralGrid(n), rng)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(tf.PairState(psi, psi), 0.01, ckpt)
    raw = bytearray(ckpt.read_bytes())
    payload = len(raw) - 2 * n * n * 16 - 4
    at = payload + (3 * n + 16) * 16
    raw[at:at + 16] = np.array([complex(np.nan, 0.0)], dtype="<c16").tobytes()
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
    ckpt.write_bytes(bytes(raw))
    out = tmp_path / "spec.csv"
    code = cli_main(["spectrum", "--checkpoint", str(ckpt), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite" in err and str(ckpt) in err
    assert "Traceback" not in err and "blow-up" not in err
    assert not out.exists()


def test_preset_and_config_conflict(capsys, config_file):
    code = cli_main(["thresholds", "--config", str(config_file), "--preset", "desk"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_requires_config_or_preset(capsys):
    code = cli_main(["thresholds"])
    assert code == 2


def test_unknown_subcommand_fails():
    assert cli_main(["frobnicate"]) != 0
