import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twinflow as tf
from twinflow.config import (
    ConfigError,
    apply_overrides,
    parse_config,
    preset_config,
    write_config,
)
from twinflow.experiment import (
    CSV_COLUMNS,
    error_record,
    prepare_initial_pair,
    read_series_csv,
    report_value_text,
    run_experiment,
    sweep,
    sweep_label,
    threshold_report,
    write_series_csv,
)
from twinflow.stepping import BlowUpError, advance, save_checkpoint, spin_up

from conftest import parse_config_text, random_psi, sub, tiny_config
from oracles import (
    dealias_mask,
    field_from_physical,
    full_lattice_error_record,
    lattice_field,
)

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))

from make_threshold_report import report_configs  # noqa: E402

PINNED_REPORTS = json.loads((DATA / "threshold_report.json").read_text())


def blowup_config():
    """Mutual nudging at mu * dt = 10: explicit Euler multiplies the observed
    difference of the pair by -19 a step, so a decorrelated pair blows up
    within ten steps."""
    return tiny_config(
        coupling=tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=1e3, mu2=1e3),
        init_kind="decorrelated",
        record_every=1,
    )


class TestErrorRecord:
    def test_pythagoras_split(self, grid64, rng):
        state = tf.PairState(random_psi(grid64, rng), random_psi(grid64, rng))
        rec = error_record(state, 10.0)
        assert rec.err_h**2 == pytest.approx(
            rec.err_low**2 + rec.err_high**2, rel=1e-12
        )

    def test_matches_norms(self, grid64, rng):
        p1, p2 = random_psi(grid64, rng), random_psi(grid64, rng)
        rec = error_record(tf.PairState(p1, p2), 10.0)
        w = sub(p1, p2)
        assert rec.err_h == pytest.approx(tf.norm_hn(w, 1), rel=1e-12)
        assert rec.err_v == pytest.approx(tf.norm_hn(w, 2), rel=1e-12)
        assert rec.err_low == pytest.approx(
            tf.norm_hn(tf.project_low(w, 10.0), 1), rel=1e-12
        )
        assert rec.energy1 == pytest.approx(tf.norm_hn(p1, 1) ** 2, rel=1e-12)

    def test_matches_full_lattice_sums(self, grid32, rng):
        # a block-supported pair with every mode of the block nonzero: the
        # self-mirrored column ky = 0 carries energy and its single weight
        # counts, as does the last column ky = K with its double weight
        def field():
            c = field_from_physical(grid32, rng.standard_normal(grid32.shape)).coeffs
            return lattice_field(grid32, c)

        psi1, psi2 = field(), field()
        assert np.all(psi1.coeffs[dealias_mask(grid32)][1:] != 0)
        state = tf.PairState(psi1, psi2, 0.5)
        rec = error_record(state, 7.0)
        expected = full_lattice_error_record(state, 7.0)
        got = (rec.err_h, rec.err_v, rec.err_low, rec.err_high, rec.energy1, rec.energy2)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-13)

    def test_high_modes_keep_their_digits_under_the_low_modes(self, grid32):
        # err_high is 1e-8 of err_low: as sqrt(err_h^2 - err_low^2) it would
        # cancel to roundoff, summed over |k| > N it keeps every digit
        coeffs = np.zeros(grid32.shape, dtype=complex)
        for (kx, ky), c in (((1, 2), 0.8 + 0.4j), ((9, 5), 1e-10)):
            coeffs[kx, ky], coeffs[-kx, -ky] = c, np.conj(c)
        psi1 = lattice_field(grid32, coeffs)
        psi2 = lattice_field(grid32, np.zeros_like(coeffs))
        expected = 2 * math.pi * math.sqrt(2 * 106) * 1e-10
        rec = error_record(tf.PairState(psi1, psi2), 5.0)
        assert rec.err_high == pytest.approx(expected, rel=1e-12, abs=0)
        assert rec.err_h**2 == pytest.approx(rec.err_low**2 + rec.err_high**2, rel=1e-15)

    def test_identical_pair_is_zero(self, grid64, rng):
        p = random_psi(grid64, rng)
        rec = error_record(tf.PairState(p, p), 10.0)
        assert rec.err_h == 0.0 and rec.err_low == 0.0 and rec.err_high == 0.0

    @pytest.mark.parametrize("n", [16, 18, 48, 96])
    def test_block_records_match_full_lattice_records(self, n):
        # the observer's blocks against the whole lattice they reflect to;
        # when 3 divides n the cutoff n/3 reaches modes outside the block
        grid = tf.SpectralGrid(n)
        rng = np.random.default_rng(n)
        cfg = tiny_config(resolution=n, forcing=tf.ForcingSpec(2, 4, 500.0, 3))
        cutoffs = [n / 4, n / 3 if n % 3 == 0 else float(grid.dealias_kmax)]
        pairs = 0
        for variant in tf.coupling.VARIANTS:
            for cutoff in cutoffs:
                spec = tf.IntertwinementSpec(variant, cutoff, theta1=0.25, mu1=5.0,
                                             mu2=2.0, matrix=(0.7, 0.3, 0.6, 0.4))
                start = tf.PairState(random_psi(grid, rng), random_psi(grid, rng))

                def observer(pair):
                    nonlocal pairs
                    got = error_record(pair, cutoff)
                    expected = dict(zip(
                        ("err_h", "err_v", "err_low", "err_high", "energy1", "energy2"),
                        full_lattice_error_record(pair, cutoff)))
                    assert got.t == pair.t
                    scale = math.sqrt(expected["energy1"])
                    for name in ("err_h", "err_v", "err_low", "err_high"):
                        assert abs(getattr(got, name) - expected[name]) <= \
                            1e-14 * scale, (variant, cutoff, name)
                    for name in ("energy1", "energy2"):
                        assert abs(getattr(got, name) - expected[name]) <= \
                            1e-14 * scale**2, (variant, cutoff, name)
                    pairs += 1

                advance(start, replace(cfg, coupling=spec), 4, observer, 2)
        assert pairs == 2 * len(cutoffs) * len(tf.coupling.VARIANTS)


class TestRunExperiment:
    def test_identical_trajectories_stay_identical(self):
        cfg = tiny_config(coupling=tf.IntertwinementSpec("trivial", 5.0))
        base = tf.spin_up(cfg, cfg.spinup_time)
        series, final = run_experiment(cfg, initial=tf.PairState(base, base))
        scale = math.sqrt(max(r.energy1 for r in series))
        assert all(r.err_h <= 1e-13 * scale for r in series)
        assert final.t == pytest.approx(cfg.t_end)

    def test_records_pass_through_module_level_error_record(self, monkeypatch, rng):
        # a wrapper put in place of error_record in every twinflow namespace
        # (as a benchmark's record clock does) sees each record, step 0
        # included, with its step index
        grid = tf.SpectralGrid(16)
        cfg = tiny_config(resolution=16, forcing=tf.ForcingSpec(2, 4, 500.0, 3),
                          t_end=0.09, record_every=3)
        initial = tf.PairState(random_psi(grid, rng), random_psi(grid, rng))
        expected, _ = run_experiment(cfg, initial)
        seen = []

        def wrapper(state, *args, **kwargs):
            seen.append(state.step_index)
            return error_record(state, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "twinflow" or name.startswith("twinflow."):
                for key, value in list(vars(module).items()):
                    if value is error_record:
                        monkeypatch.setattr(module, key, wrapper)
        series, _ = run_experiment(cfg, initial)
        assert seen == [0, 3, 6, 9]
        assert series == expected

    def test_record_cadence_and_initial_sample(self):
        cfg = tiny_config()
        series, _ = run_experiment(cfg)
        assert series[0].t == 0.0
        assert len(series) == 1 + int(round(cfg.t_end / cfg.dt)) // cfg.record_every

    def test_outputs_written(self, tmp_path):
        cfg = tiny_config()
        series, _ = run_experiment(cfg, output_dir=tmp_path)
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "manifest.ini").exists()
        back = read_series_csv(tmp_path / "series.csv")
        assert len(back) == len(series)
        # the header perfbench and readers of series.csv rely on
        assert CSV_COLUMNS == ("t", "err_h", "err_v", "err_low", "err_high",
                               "energy1", "energy2")
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert back[-1].err_h == series[-1].err_h  # 17 digits round-trips doubles

    def test_blow_up_writes_records_taken(self, tmp_path):
        cfg = blowup_config()
        with pytest.raises(BlowUpError) as info:
            run_experiment(cfg, output_dir=tmp_path)
        assert info.value.last_checkpoint is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.ini",
                                                              "series.csv"]
        # the records of the steps before the one that blew up
        done = int(round(info.value.t / cfg.dt)) - 1
        assert done >= 1
        series, _ = run_experiment(replace(cfg, t_end=done * cfg.dt))
        assert read_series_csv(tmp_path / "series.csv") == series

    def test_init_modes(self, tmp_path):
        cfg = tiny_config(init_kind="projected_low")
        pair = prepare_initial_pair(cfg)
        low_diff = tf.project_low(sub(pair.psi1, pair.psi2), cfg.coupling.cutoff)
        assert not np.any(low_diff.coeffs)
        assert np.any(sub(pair.psi1, tf.project_low(pair.psi1, cfg.coupling.cutoff)).coeffs)

        cfg2 = tiny_config(init_kind="decorrelated", decorrelate_time=0.3)
        pair2 = prepare_initial_pair(cfg2)
        assert tf.norm_hn(sub(pair2.psi1, pair2.psi2), 1) > 0

    def test_init_from_checkpoints(self, tmp_path, rng):
        cfg = tiny_config(init_kind="checkpoints")
        g = cfg.grid
        a, b = (random_psi(g, rng) for _ in range(2))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(tf.PairState(a, a), cfg.dt, p1)
        save_checkpoint(tf.PairState(b, b), cfg.dt, p2)
        cfg = tiny_config(
            init_kind="checkpoints", checkpoint1=str(p1), checkpoint2=str(p2)
        )
        pair = prepare_initial_pair(cfg)
        assert np.array_equal(pair.psi1.coeffs, a.coeffs)
        assert np.array_equal(pair.psi2.coeffs, b.coeffs)

    def test_missing_checkpoints_rejected(self):
        cfg = tiny_config(init_kind="checkpoints")
        with pytest.raises(FileNotFoundError):
            prepare_initial_pair(cfg)

    def test_base_checkpoint_reused(self, tmp_path, rng):
        g = tf.SpectralGrid(32)
        base = random_psi(g, rng)
        path = tmp_path / "base.ckpt"
        save_checkpoint(tf.PairState(base, base), 0.01, path)
        cfg = tiny_config(base_checkpoint=str(path))
        pair = prepare_initial_pair(cfg)
        assert np.array_equal(pair.psi1.coeffs, base.coeffs)


class TestFitDecayRate:
    def synthetic(self, rate, n=101, t1=5.0, wobble=0.0):
        ts = np.linspace(0.0, t1, n)
        recs = []
        for t in ts:
            v = math.exp(rate * t) * (1.0 + wobble * math.sin(t))
            recs.append(tf.ErrorRecord(t, v, v, v, v, 1.0, 1.0))
        return recs

    def test_exact_exponential(self):
        fit = tf.fit_decay_rate(self.synthetic(-2.0))
        assert fit.rate == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        fit = tf.fit_decay_rate(self.synthetic(0.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_exponential(self):
        fit = tf.fit_decay_rate(self.synthetic(-2.0, wobble=0.01), window=(0.0, 5.0))
        assert fit.rate == pytest.approx(-2.0, abs=0.02)

    def test_window_selection_defaults_to_last_half(self):
        fit = tf.fit_decay_rate(self.synthetic(-1.0, t1=8.0))
        assert fit.window == (4.0, 8.0)

    def test_default_window_ends_at_the_roundoff_floor(self):
        # decays at rate -3 until it meets the roundoff floor (1e-13 of
        # |u| = 1, at t ~ 10), then sits at about 1e-17 to t = 40: the
        # plateau's slope is not the rate
        recs = []
        for t in np.linspace(0.0, 40.0, 401):
            v = max(math.exp(-3.0 * t), 1e-17 * (1.5 + math.sin(7.0 * t)))
            recs.append(tf.ErrorRecord(t, v, v, v, v, 1.0, 1.0))
        fit = tf.fit_decay_rate(recs)
        assert fit.window[1] < 10.0
        assert fit.rate == pytest.approx(-3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_samples_rejected(self):
        recs = self.synthetic(-2.0)
        recs[60] = tf.ErrorRecord(recs[60].t, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="shrink the window"):
            tf.fit_decay_rate(recs, window=(2.5, 5.0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            tf.fit_decay_rate(self.synthetic(-2.0, n=30), window=(4.9, 5.0))


class TestSweep:
    def test_empty_axis(self, tmp_path):
        rows = tf.sweep(tiny_config(), "theta1", [], tmp_path)
        assert rows == []
        assert (tmp_path / "summary.csv").exists()

    def test_rows_and_outputs(self, tmp_path):
        cfg = tiny_config(t_end=1.5, record_every=2)
        rows = tf.sweep(cfg, "theta1", [0.0, 1.0], tmp_path)
        assert len(rows) == 2
        assert all(not r.error for r in rows)
        assert (tmp_path / "theta1_0" / "series.csv").exists()
        assert (tmp_path / "theta1_1" / "series.csv").exists()

    def test_failure_isolation(self, tmp_path):
        cfg = tiny_config(t_end=1.5, record_every=2)
        # cutoff beyond the resolved band fails validation inside the run
        rows = tf.sweep(cfg, "cutoff", [5.0, 500.0], tmp_path)
        assert not rows[0].error
        assert rows[1].error and math.isnan(rows[1].final_err_h)

    @pytest.mark.parametrize("values", [[0.5, 0.5], [math.nan, 0.25, math.nan]])
    def test_repeated_value_rejected_before_any_run(self, tmp_path, values):
        # each value names its run directory: a repeat (NaN included, which
        # is unequal to itself) would run twice into one directory
        out = tmp_path / "sweep"
        with pytest.raises(ConfigError, match="repeated"):
            tf.sweep(tiny_config(t_end=1.0), "theta1", values, out)
        assert not out.exists()

    def test_shared_initial_matches_serial(self, tmp_path):
        cfg = tiny_config(t_end=1.0, record_every=2)
        rows = tf.sweep(cfg, "mu2", [0.0])
        series, _ = run_experiment(cfg, initial=prepare_initial_pair(cfg))
        assert rows[0].final_err_h == series[-1].err_h

    def test_cutoff_sweep_spins_up_once(self, tmp_path, monkeypatch):
        # projection-matched init: every run's observer is the low part of
        # one shared reference, which is spun up once
        calls = []

        def counted_spin_up(*args, **kwargs):
            calls.append(args)
            return spin_up(*args, **kwargs)

        monkeypatch.setattr("twinflow.experiment.spin_up", counted_spin_up)
        cfg = tiny_config(record_every=1)
        values = [3.0, 4.0, 5.0, 20.0]  # 20 is beyond the resolved band
        rows = tf.sweep(cfg, "cutoff", values, tmp_path)
        assert len(calls) == 1
        assert rows[-1].error
        for value, row in zip(values[:-1], rows):
            run_cfg = replace(cfg, coupling=replace(cfg.coupling, cutoff=value))
            series, _ = run_experiment(run_cfg)
            run_dir = tmp_path / f"cutoff_{sweep_label(value)}"
            assert read_series_csv(run_dir / "series.csv") == series
            assert row.final_err_h == series[-1].err_h


class TestThresholdReport:
    def test_value_text(self):
        # sweep summaries print 6 digits, ``twinflow thresholds`` 12
        assert [report_value_text(v, 6) for v in (True, False, 5, "x")] == [
            "yes", "no", "5", "x"]
        assert report_value_text(2.0 / 3.0, 6) == "0.666667"
        assert report_value_text(2.0 / 3.0, 12) == "0.666666666667"
        assert report_value_text(1e-20, 6) == "1e-20"

    def test_mutual_sync_keys(self):
        report = threshold_report(tiny_config())
        assert report["variant"] == "mutual_sync"
        assert "n_star" in report and "cutoff_ok" in report

    def test_symmetric_keys(self):
        cfg = tiny_config(
            coupling=tf.IntertwinementSpec("symmetric_nudge", 5.0, mu1=2.0, mu2=1.0)
        )
        report = threshold_report(cfg)
        assert {"n_a", "n_b", "mu_constraint_a", "mu_constraint_b"} <= set(report)

    @staticmethod
    def pair_config(coupling):
        return tiny_config(
            forcing=tf.ForcingSpec(10, 12, 300.0, 1),
            forcing2=tf.ForcingSpec(10, 12, 400.0, 2),
            coupling=coupling,
        )

    def test_pair_magnitudes(self):
        # degenerate sync reads max(g1, g2); nudging reads hypot(g1, g2)
        cfg = self.pair_config(tf.IntertwinementSpec("degenerate_sync", 5.0))
        report = threshold_report(cfg)
        assert report["grashof_1"] == pytest.approx(300.0, rel=1e-12)
        assert report["grashof_2"] == pytest.approx(400.0, rel=1e-12)
        assert report["n_star"] == pytest.approx(
            tf.threshold_degenerate_sync(400.0), rel=1e-12
        )
        cfg = self.pair_config(
            tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=2.0, mu2=1.0)
        )
        report = threshold_report(cfg)
        n_assisted, n_unassisted = tf.threshold_mutual_nudge(2.0, 1.0, 500.0)
        assert report["n_assisted"] == pytest.approx(n_assisted, rel=1e-12)
        assert report["n_unassisted"] == pytest.approx(n_unassisted, rel=1e-12)

    @staticmethod
    def window_report(variant, mu1, mu2, cutoff=10.0):
        # c_lad = 1e-5 puts n_unassisted, n_a and n_b below the 32^2 band
        coupling = tf.IntertwinementSpec(variant, cutoff, mu1=mu1, mu2=mu2)
        return threshold_report(tiny_config(coupling=coupling, c_lad=1e-5))

    def test_mutual_nudge_window_closed_endpoints(self):
        # equal strengths keep the ratio, so n_unassisted, at 1
        probe = self.window_report("mutual_nudge", 1.0, 1.0)
        n_unassisted, nu = probe["n_unassisted"], 0.01
        lo, hi = probe["mu_band_low"], probe["mu_band_high"]
        assert lo == pytest.approx(4.0 / 3.0 * n_unassisted**2 * nu, rel=1e-13)
        assert hi == pytest.approx(4.0 / 3.0 * 10.0**2 * nu, rel=1e-13)
        for total, inside in ((lo, True), (hi, True), (lo * (1 - 1e-12), False),
                              (hi * (1 + 1e-12), False)):
            report = self.window_report("mutual_nudge", total / 2, total / 2)
            assert report["mu_sum"] == total
            assert report["mu_sum_ok"] is inside, total
        # the window closes to a point at N = n_unassisted, and at
        # N = 2 n_unassisted its top is four times its bottom
        point = self.window_report("mutual_nudge", 1.0, 1.0, n_unassisted)
        assert point["mu_band_low"] == pytest.approx(point["mu_band_high"], rel=1e-13)
        double = self.window_report("mutual_nudge", 1.0, 1.0, 2 * n_unassisted)
        assert double["mu_band_high"] == pytest.approx(
            4 * double["mu_band_low"], rel=1e-13
        )

    def test_symmetric_nudge_windows_closed_endpoints(self):
        nu = 0.01
        hi = 0.25 * 10.0**2 * nu
        n_a = self.window_report("symmetric_nudge", 1.0, 1.0)["n_a"]
        lo_a = 0.25 * n_a**2 * nu
        for total, inside in ((lo_a, True), (hi, True), (lo_a * (1 - 1e-12), False),
                              (hi * (1 + 1e-12), False)):
            report = self.window_report("symmetric_nudge", total / 2, total / 2)
            assert "n_b" not in report
            assert report["mu_constraint_a"] is inside, total
        # n_b reads only mu1 - mu2: hold that gap at a power of two and split
        # each endpoint around it, so both the sum and the gap are exact
        gap = 2.0**-16
        n_b = self.window_report("symmetric_nudge", gap, 0.0)["n_b"]
        lo_b = 0.25 * n_b**2 * nu
        assert gap < lo_b < hi
        for total, inside in ((lo_b, True), (hi, True), (lo_b * (1 - 1e-12), False),
                              (hi * (1 + 1e-12), False)):
            mu1, mu2 = (total + gap) / 2, (total - gap) / 2
            report = self.window_report("symmetric_nudge", mu1, mu2)
            if inside:
                assert mu1 + mu2 == total and mu1 - mu2 == gap
                assert report["n_b"] == n_b
            assert report["mu_constraint_b"] is inside, total

    @pytest.mark.parametrize("theta1, single", [(0.0, "grashof_1"), (1.0, "grashof_2")])
    def test_grashof_lambda_endpoints(self, theta1, single):
        cfg = self.pair_config(tf.IntertwinementSpec("mutual_sync", 5.0, theta1=theta1))
        report = threshold_report(cfg)
        assert report["grashof_lambda"] == pytest.approx(report[single], rel=1e-13)

    @pytest.mark.parametrize("name", list(PINNED_REPORTS))
    def test_matches_pinned_values(self, name):
        report = threshold_report(report_configs()[name])
        pinned = PINNED_REPORTS[name]
        assert list(report) == list(pinned)
        for key, expected in pinned.items():
            value = report[key]
            assert type(value) is type(expected), key
            if isinstance(expected, float):
                assert value == pytest.approx(expected, rel=1e-12), key
            else:
                assert value == expected, key


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(forcing2=tf.ForcingSpec(10, 12, 300.0, 9))
        path = tmp_path / "cfg.ini"
        write_config(cfg, path)
        assert parse_config(path) == cfg

    def test_manifest_provenance_ignored(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "manifest.ini"
        write_config(cfg, path, provenance={"note": "x", "seed": 3})
        assert parse_config(path) == cfg

    def test_overrides(self):
        cfg = tiny_config()
        out = apply_overrides(cfg, ["sim.nu=0.02", "intertwinement.theta1=0.75"])
        assert out.nu == 0.02
        assert out.coupling.theta1 == 0.75
        # the force is renormalized at the overridden viscosity
        f = tf.make_band_forcing(out.forcing, out.grid, out.nu)
        assert tf.grashof(f, 0.02) == pytest.approx(out.forcing.grashof_target, rel=1e-12)

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(tiny_config(), ["nonsense"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing config key"):
            parse_config_text("[sim]\nresolution = 32\n")

    @pytest.mark.parametrize("override", ["sim.nu=0", "sim.dt=0", "sim.nu=nan", "sim.dt=nan"])
    def test_nonpositive_nu_or_dt_rejected(self, override):
        with pytest.raises(ConfigError, match="nu and dt must be positive"):
            apply_overrides(tiny_config(), [override])

    @pytest.mark.parametrize(
        "override",
        ["sim.t_end=-5", "experiment.spinup_time=-1", "experiment.decorrelate_time=-0.5",
         "experiment.checkpoint_every=0", "experiment.checkpoint_every=-1",
         "sim.t_end=inf", "forcing.grashof=nan", "intertwinement.cutoff=nan",
         "intertwinement.mu1=nan", "intertwinement.mu2=nan",
         "intertwinement.theta1=nan", "intertwinement.theta1=1.5",
         "intertwinement.theta1=-0.5", "intertwinement.matrix=1,nan,0,0",
         "experiment.c_lad=nan", "experiment.c_lad=-1", "experiment.c_agmon=0",
         "experiment.c_sob=inf"],
    )
    def test_negative_durations_or_cadence_rejected(self, override):
        key = override.split("=")[0].split(".")[1]
        with pytest.raises(ConfigError, match=key):
            apply_overrides(tiny_config(), [override])

    @pytest.mark.parametrize(
        "old, new", [("record_every =", "record_evry ="), ("[sim]", "[simm]")],
        ids=["key", "section"],
    )
    def test_unknown_key_or_section_rejected(self, tmp_path, old, new):
        path = tmp_path / "cfg.ini"
        write_config(tiny_config(), path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=new.strip("[] =")):
            parse_config(path)

    @pytest.mark.parametrize("resolution", [4098, 2**40])
    def test_resolution_beyond_bound_rejected(self, no_large_grid, resolution):
        with pytest.raises(ConfigError, match=f"resolution {resolution} exceeds 4096"):
            tiny_config(resolution=resolution)

    def test_readme_schema_is_desk_preset(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config_text(block) == preset_config("desk")

    def test_cutoff_validation(self, tmp_path):
        # a config is built without reading its cutoff (a spin-up never
        # does); everything that reads it refuses before making anything
        cfg = tiny_config(coupling=tf.IntertwinementSpec("mutual_sync", 11.0, theta1=0.5))
        out = tmp_path / "out"
        for call in (lambda: run_experiment(cfg, output_dir=out),
                     lambda: sweep(cfg, "theta1", [0.5], out),
                     lambda: threshold_report(cfg)):
            with pytest.raises(ConfigError, match="resolved band"):
                call()
        assert not out.exists()

    def test_presets_exist(self):
        desk = preset_config("desk")
        assert desk.resolution == 128 and desk.nu == 0.005 and desk.dt == 0.005
        text = preset_config("paper-text")
        assert text.resolution == 512 and text.nu == 0.0005 and text.dt == 0.01
        fig = preset_config("paper-figure")
        assert fig.resolution == 512 and fig.nu == 0.005 and fig.dt == 0.001
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("giant")

    def test_matrix_round_trip(self, tmp_path):
        cfg = tiny_config(
            coupling=tf.IntertwinementSpec(
                "general_nudge", 5.0, matrix=(1.0, 2.0, 3.0, 4.0)
            )
        )
        path = tmp_path / "cfg.ini"
        write_config(cfg, path)
        assert parse_config(path).coupling.matrix == (1.0, 2.0, 3.0, 4.0)
