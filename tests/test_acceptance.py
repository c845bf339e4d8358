"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The desk-scale base state (spin-up to t=200 at 128^2 plus
a 50-unit decorrelation) is computed once per session and shared by
criteria 4-8; each criterion's runtime budget covers its own protocol on
top of that shared setup.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import twinflow as tf
from twinflow.config import ExperimentConfig, parse_config, preset_config
from twinflow.coupling import (
    threshold_degenerate_sync,
    threshold_mutual_nudge,
    threshold_mutual_sync,
    threshold_symmetric_nudge,
)
from twinflow.experiment import fit_decay_rate, run_experiment, threshold_report
from twinflow.spectral import zero_field
from twinflow.stepping import load_checkpoint, save_checkpoint

from conftest import nonlinear_full, random_psi, sub, velocity_norm
from oracles import (
    convolution_nonlinear_term,
    lattice_field,
    lattice_ksq,
    odd_energy,
    step_single,
    trilinear_b,
    velocity_from_stream,
    velocity_laplacian,
)

DESK = preset_config("desk")


def _report(num, desc, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    print(f"\nACCEPTANCE {num:>2} PASS  {desc}  [{elapsed:.1f}s / budget {budget:.0f}s]")


@pytest.fixture(scope="session")
def desk_base(tmp_path_factory):
    """Spun-up desk-scale reference state, checkpointed for reuse."""
    t0 = time.perf_counter()
    psi = tf.spin_up(DESK, DESK.spinup_time)
    path = tmp_path_factory.mktemp("desk") / "base.ckpt"
    save_checkpoint(tf.PairState(psi, psi, DESK.spinup_time), DESK.dt, path)
    print(f"\n[session fixture] desk spin-up to t={DESK.spinup_time:g}: "
          f"{time.perf_counter() - t0:.0f}s")
    return psi, path


@pytest.fixture(scope="session")
def desk_pair(desk_base):
    """Decorrelated desk-scale pair (the second snapshot evolved onward)."""
    psi1, _ = desk_base
    t0 = time.perf_counter()
    psi2 = tf.decorrelate(psi1, DESK, DESK.decorrelate_time)
    rel = tf.norm_hn(sub(psi1, psi2), 1) / tf.norm_hn(psi1, 1)
    print(f"[session fixture] decorrelation {DESK.decorrelate_time:g} units: "
          f"{time.perf_counter() - t0:.0f}s, relative H-distance {rel:.2f}")
    assert rel > 0.1, "decorrelated partner is still correlated"
    return tf.PairState(psi1, psi2)


def test_criterion_1_trilinear_identities(rng):
    t0 = time.perf_counter()
    grid = tf.SpectralGrid(64)
    for _ in range(100):
        u = velocity_from_stream(random_psi(grid, rng))
        v = velocity_from_stream(random_psi(grid, rng))
        skew = abs(trilinear_b(u, v, v))
        assert skew <= 1e-10 * velocity_norm(u, 1) * velocity_norm(v, 1) ** 2
        au = velocity_laplacian(u)
        enstrophy = abs(trilinear_b(u, u, au))
        scale = velocity_norm(u, 1) * velocity_norm(au, 0) * velocity_norm(u, 0)
        assert enstrophy <= 1e-10 * scale
    # the stepper's own term: J = |k|^2 nonlinear_block(psi) is u.grad(omega)
    # up to sign, and the truncated system conserves energy, (psi, J) = 0,
    # and enstrophy, (omega, J) = 0
    for n in (64, 96):  # 3 divides 96
        grid = tf.SpectralGrid(n)
        for _ in range(30):
            field = random_psi(grid, rng)
            psi = field.coeffs
            ksq = lattice_ksq(grid)
            jac = ksq * nonlinear_full(field)
            for name, a in (("energy", psi), ("enstrophy", ksq * psi)):
                bound = 1e-10 * np.linalg.norm(a) * np.linalg.norm(jac)
                assert abs(np.vdot(a, jac)) <= bound, f"{name} identity at {n}^2"
    _report(1, "trilinear identities, 100 fields at 64^2; energy and enstrophy "
            "of the stepper's term, 30 fields at 64^2 and 96^2",
            time.perf_counter() - t0, 30)


def test_criterion_2_convolution_oracle(rng):
    t0 = time.perf_counter()
    grid = tf.SpectralGrid(16)
    for _ in range(20):
        psi = random_psi(grid, rng, decay=1.5)
        fast = nonlinear_full(psi)
        slow = convolution_nonlinear_term(psi)
        assert np.max(np.abs(fast - slow)) <= 1e-10 * np.max(np.abs(slow))
    _report(2, "advection term matches direct convolution, 20 fields",
            time.perf_counter() - t0, 30)


def test_criterion_3_integrating_factor_exactness():
    t0 = time.perf_counter()
    cfg = replace(DESK, resolution=16, nu=0.01, dt=0.01)  # its force sets the blow-up limit
    grid = cfg.grid
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[0, 1] = c[0, -1] = 0.5  # cos(y), |k| = 1
    psi = lattice_field(grid, c)
    zero = zero_field(grid)
    amp0 = tf.norm_hn(psi, 1)
    for _ in range(10_000):
        psi = step_single(psi, cfg, zero)
    expected = amp0 * math.exp(-cfg.nu * 10_000 * cfg.dt)
    assert tf.norm_hn(psi, 1) == pytest.approx(expected, rel=1e-12)
    _report(3, "viscous decay exact over 10^4 steps", time.perf_counter() - t0, 5)


def _desk_run(coupling, t_end, record_every, initial):
    """Error series of a desk-scale run of the given pair."""
    cfg = replace(DESK, coupling=coupling, t_end=t_end, record_every=record_every)
    series, _ = run_experiment(cfg, initial=initial)
    return series


def test_criterion_4_observed_mode_heat_invariant(desk_pair):
    t0 = time.perf_counter()
    spec = tf.IntertwinementSpec("mutual_sync", 20.0, theta1=0.5)
    series = _desk_run(spec, 10.0, 5, desk_pair)
    slack = 1e-10 * tf.norm_hn(desk_pair.psi1, 1)
    for rec in series:
        assert rec.err_low <= math.exp(-DESK.nu * rec.t) * series[0].err_low + slack
    _report(4, "observed modes of mutual sync obey the heat bound",
            time.perf_counter() - t0, 120)


def test_criterion_5_degenerate_low_mode_identity(desk_base):
    t0 = time.perf_counter()
    psi1, _ = desk_base
    cutoff = 20.0
    spec = tf.IntertwinementSpec("degenerate_sync", cutoff)
    state = tf.PairState(psi1, tf.project_low(psi1, cutoff))
    series = _desk_run(spec, 1000 * DESK.dt, 10, state)
    assert len(series) == 101  # step 0 and every 10th of 1000 steps
    assert max(r.err_low for r in series) <= 1e-12 * tf.norm_hn(psi1, 1)
    _report(5, "degenerate sync keeps projected states identical for 1000 steps",
            time.perf_counter() - t0, 60)


def test_criterion_6_theta_sweep(desk_base):
    t0 = time.perf_counter()
    psi1, base_ckpt = desk_base
    v0 = tf.norm_hn(psi1, 1)
    rates = {}
    for theta1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = replace(
            DESK,
            t_end=15.0,
            record_every=5,
            base_checkpoint=str(base_ckpt),
            init_kind="projected_low",
            coupling=tf.IntertwinementSpec("mutual_sync", 20.0, theta1=theta1),
        )
        series, _ = run_experiment(cfg)
        assert min(r.err_high for r in series) < 1e-8 * v0, (
            f"theta1={theta1}: unobserved error never reached 1e-8 * |v1(0)|"
        )
        rates[theta1] = fit_decay_rate(series, window=(1.0, 8.0), field="err_high").rate
        # the rate a sweep reports: err_h reaches roundoff by t ~ 12, and the
        # default window ends where it does
        fit = fit_decay_rate(series)
        assert fit.r_squared >= 0.99 and abs(fit.rate / rates[theta1] - 1) <= 0.05, (
            f"theta1={theta1}: default-window rate {fit.rate} against {rates[theta1]}"
        )
    values = sorted(abs(r) for r in rates.values())
    assert all(r < 0 for r in rates.values())
    assert values[-1] <= 2.0 * values[0], f"rates disagree beyond factor 2: {rates}"
    _report(6, "all theta weights synchronize at comparable rates",
            time.perf_counter() - t0, 900)


@pytest.fixture(scope="session")
def nudging_runs(desk_pair):
    """Desk-scale nudging series at mu1 = 50 for mu2 = 0, 25, 50, one run
    per coupling form: mutual and symmetric nudging at mu1 = mu2 share
    the form (-mu, mu, mu, -mu), so criteria 7 and 8 share that run."""
    by_form = {}

    def runs(variant):
        series = {}
        for mu2 in (0.0, 25.0, 50.0):
            spec = tf.IntertwinementSpec(variant, 20.0, mu1=50.0, mu2=mu2)
            if spec.form not in by_form:
                by_form[spec.form] = _desk_run(spec, 12.0, 1, desk_pair)
            series[mu2] = by_form[spec.form]
        return series

    return runs


def test_criterion_7_mutual_nudging_rates(nudging_runs):
    t0 = time.perf_counter()
    runs = nudging_runs("mutual_nudge")
    early, late = {}, {}
    for mu2, series in runs.items():
        drop = series[0].err_h / min(r.err_h for r in series)
        assert drop >= 1e6, f"mu2={mu2}: error fell only {drop:.1e}-fold"
        early[mu2] = fit_decay_rate(series, window=(0.0, 0.05)).rate
        late[mu2] = fit_decay_rate(series, window=(4.0, 10.0)).rate
    assert abs(early[0.0]) <= abs(early[25.0]) <= abs(early[50.0]), (
        f"initial-window decay speed not nondecreasing in mu2: {early}"
    )
    late_mag = sorted(abs(r) for r in late.values())
    assert late_mag[-1] <= 2.0 * late_mag[0], f"late rates beyond factor 2: {late}"
    _report(7, "mutual nudging: fast mu-dependent transient, shared late rate",
            time.perf_counter() - t0, 900)


def test_criterion_8_symmetric_nudging_rates(nudging_runs):
    t0 = time.perf_counter()
    runs = nudging_runs("symmetric_nudge")
    fits = {}
    for mu2, series in runs.items():
        drop = series[0].err_h / min(r.err_h for r in series)
        assert drop >= 1e6, f"mu2={mu2}: error fell only {drop:.1e}-fold"
        fit = fit_decay_rate(series, window=(4.0, 10.0))
        assert fit.rate < 0, f"mu2={mu2}: no exponential decay in the late window"
        fits[mu2] = fit
    gap = abs(fits[50.0].rate - fits[25.0].rate)
    combined = fits[50.0].stderr + fits[25.0].stderr
    assert gap > combined, (
        f"equal-strength rate {fits[50.0].rate:.4f} not distinguishable from "
        f"mu2=25 rate {fits[25.0].rate:.4f} (combined stderr {combined:.1e})"
    )
    _report(8, "symmetric nudging: equal strengths decay at a distinct rate",
            time.perf_counter() - t0, 900)


def test_criterion_9_threshold_arithmetic():
    t0 = time.perf_counter()
    nu = 0.005
    # spot values
    assert threshold_symmetric_nudge(50.0, 25.0, 10.0, nu)[0] == pytest.approx(
        40.0, rel=1e-12
    )
    assert threshold_mutual_nudge(50.0, 50.0, 10.0)[1] == pytest.approx(
        1.5 * math.sqrt(2.0) * 10.0, rel=1e-12
    )
    assert threshold_mutual_sync(10.0, 0.5) == pytest.approx(
        15.0 * math.sqrt(27.0) * 100.0, rel=1e-12
    )
    # residual checks: substituting each output back satisfies its inequality
    for g in (0.0, 1.0, 10.0):
        for lam in (0.0, 0.5, 1.0):
            n = threshold_mutual_sync(g, lam)
            if lam in (0.0, 1.0):
                assert n >= max(48 * math.sqrt(3) * g**2, 1.0) * (1 - 1e-12)
            else:
                assert n >= 15 * math.sqrt(27) * g**2 * (1 - 1e-12)
        n = threshold_degenerate_sync(g)
        assert n >= max(9 * math.sqrt(3), 12 * math.sqrt(2)) * g * (1 - 1e-12)
        if g > 0:
            implied = 32 * math.sqrt(2) * math.sqrt(
                24 * (1 + math.log(n)) * g**2 + 1) * g
            assert n >= implied * (1 - 1e-9)
        n_assisted, n_unassisted = threshold_mutual_nudge(50.0, 25.0, g)
        assert n_assisted >= 4 * math.sqrt(2) * math.sqrt(2.0) * g**2 * (1 - 1e-12)
        n_a, n_b = threshold_symmetric_nudge(50.0, 25.0, g, nu)
        assert n_a >= 0 and n_b >= 0
    # the mu1 + mu2 windows, applied by threshold_report; a small c_lad puts
    # the cutoffs below the desk preset's N = 20
    def report(variant, mu1, mu2):
        coupling = tf.IntertwinementSpec(variant, 20.0, mu1=mu1, mu2=mu2)
        return threshold_report(replace(DESK, coupling=coupling, c_lad=1e-8))

    mutual = report("mutual_nudge", 50.0, 25.0)
    lo, hi = mutual["mu_band_low"], mutual["mu_band_high"]
    assert lo == pytest.approx(4.0 / 3.0 * mutual["n_unassisted"]**2 * DESK.nu, rel=1e-12)
    assert hi >= lo
    symmetric = report("symmetric_nudge", 0.3, 0.1)
    assert symmetric["mu_constraint_a"] and symmetric["mu_constraint_b"]
    _report(9, "threshold arithmetic: spot values and residuals",
            time.perf_counter() - t0, 1)


def test_criterion_10_paper_scale_smoke():
    t0 = time.perf_counter()
    cfg = replace(
        preset_config("paper-text"),
        spinup_time=0.0,
        t_end=1.0,  # 100 steps at dt = 0.01
        record_every=10,
        init_kind="decorrelated",
        decorrelate_time=1.0,
    )
    assert cfg.resolution == 512 and cfg.nu == 0.0005 and cfg.dt == 0.01
    assert cfg.forcing.grashof_target == 1.0e5
    series, final = run_experiment(cfg)
    assert final.step_index == 100
    for rec in series:
        for col in ("err_h", "err_v", "err_low", "err_high", "energy1", "energy2"):
            assert np.isfinite(getattr(rec, col))
    _report(10, "paper-scale preset runs 100 steps with finite norms",
            time.perf_counter() - t0, 600)


def test_criterion_11_determinism_and_persistence(tmp_path, rng):
    t0 = time.perf_counter()
    # bit-exact checkpoint round-trip
    grid = tf.SpectralGrid(64)
    state = tf.PairState(random_psi(grid, rng), random_psi(grid, rng), 2.5, 500)
    ckpt = tmp_path / "state.ckpt"
    save_checkpoint(state, 0.005, ckpt)
    back, dt = load_checkpoint(ckpt)
    assert dt == 0.005
    assert np.array_equal(back.psi1.coeffs, state.psi1.coeffs)
    assert np.array_equal(back.psi2.coeffs, state.psi2.coeffs)
    assert back.t == state.t and back.step_index == state.step_index

    # manifest re-run reproduces the series bit-identically
    nu = 0.01
    cfg = ExperimentConfig(
        resolution=32,
        nu=nu,
        dt=0.01,
        t_end=0.5,
        forcing=tf.ForcingSpec(10, 12, 500.0, 3),
        coupling=tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=10.0, mu2=5.0),
        init_kind="decorrelated",
        spinup_time=0.5,
        decorrelate_time=0.2,
        record_every=5,
    )
    first = tmp_path / "first"
    run_experiment(cfg, output_dir=first)
    rerun_cfg = parse_config(first / "manifest.ini")
    second = tmp_path / "second"
    run_experiment(rerun_cfg, output_dir=second)
    assert (first / "series.csv").read_bytes() == (second / "series.csv").read_bytes()
    assert (first / "final.ckpt").read_bytes() == (second / "final.ckpt").read_bytes()
    _report(11, "checkpoints and manifest re-runs are bit-reproducible",
            time.perf_counter() - t0, 120)


# The presets force only modes with kx + ky even, so the flows invariant
# under the shift (x, y) -> (x + pi, y + pi) form an invariant set. On
# power-of-two grids the odd sublattice (kx + ky odd) stays exactly zero;
# on other grids round-off seeds it (ROADMAP item 11).


def test_desk_base_state_lies_on_the_shift_invariant_subspace(desk_base):
    psi, _ = desk_base
    assert odd_energy(psi) == 0.0
    assert tf.norm_hn(psi, 1) > 0.0


@pytest.mark.parametrize("n, on_subspace", [(32, True), (64, True), (48, False), (96, False)])
def test_power_of_two_grids_keep_the_odd_sublattice_at_zero(n, on_subspace):
    psi = tf.spin_up(replace(DESK, resolution=n), 1.0)
    assert tf.norm_hn(psi, 1) > 0.0
    assert (odd_energy(psi) == 0.0) == on_subspace
