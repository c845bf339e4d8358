import numpy as np
import pytest

import twinflow as tf
from twinflow.spectral import hermitian_defect, zero_field
from twinflow.stepping import (
    BlowUpError,
    CheckpointError,
    advance,
    load_checkpoint,
    save_checkpoint,
)

from conftest import random_psi
from oracles import scalar_reference_pair_step


def shear_mode(grid, amplitude=1.0):
    # cos(y) built directly in spectral space: exact, no transform noise
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[0, 1] = c[0, -1] = amplitude / 2.0
    return tf.SpectralField(grid, c)


@pytest.fixture
def small_cfg(grid32):
    return tf.SimConfig(nu=0.01, dt=0.01, grid=grid32)


@pytest.fixture
def forced_cfg(grid32):
    spec = tf.ForcingSpec(10, 12, 500.0, 0.01, phase_seed=3)
    return tf.SimConfig(nu=0.01, dt=0.01, grid=grid32, forcing=spec)


def zero_force(grid):
    return zero_field(grid)


class TestIntegratingFactor:
    def test_pure_diffusion_exact(self, grid32, small_cfg):
        psi = shear_mode(grid32)
        f0 = zero_force(grid32)
        amp0 = tf.norm_hn(psi, 1)
        n = 200
        for _ in range(n):
            psi = tf.step_single(psi, small_cfg, f0)
        expected = amp0 * np.exp(-small_cfg.nu * n * small_cfg.dt)
        assert tf.norm_hn(psi, 1) == pytest.approx(expected, rel=1e-12)

    def test_nonlinear_term_exactly_zero_for_shear(self, grid32, small_cfg):
        psi0 = shear_mode(grid32)
        psi1 = tf.step_single(psi0, small_cfg, zero_force(grid32))
        efac = np.exp(-small_cfg.nu * 1.0 * small_cfg.dt)
        nz = np.abs(psi0.coeffs) > 0
        assert np.array_equal(psi1.coeffs[nz], efac * psi0.coeffs[nz])


class TestPairStep:
    def test_single_equals_trivial_pair(self, grid32, forced_cfg, rng):
        psi = random_psi(grid32, rng)
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        single = tf.step_single(psi, forced_cfg, f)
        pair = tf.step_pair(
            tf.PairState(psi, psi),
            forced_cfg,
            tf.IntertwinementSpec("trivial", 5.0),
            f,
            f,
        )
        assert np.array_equal(single.coeffs, pair.psi1.coeffs)
        assert np.array_equal(pair.psi1.coeffs, pair.psi2.coeffs)

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("trivial", {}),
            ("mutual_sync", dict(theta1=0.25)),
            ("degenerate_sync", {}),
            ("mutual_nudge", dict(mu1=5.0, mu2=2.0)),
            ("symmetric_nudge", dict(mu1=5.0, mu2=2.0)),
        ],
    )
    def test_against_scalar_reference_at_res8(self, rng, variant, kwargs):
        # independent per-mode reference: convolution nonlinearity plus
        # plain python integrating-factor arithmetic
        grid = tf.SpectralGrid(8)
        cfg = tf.SimConfig(nu=0.05, dt=0.02, grid=grid)
        spec = tf.IntertwinementSpec(variant, 2.0, **kwargs)
        psi1, psi2 = random_psi(grid, rng, decay=1.0), random_psi(grid, rng, decay=1.0)
        f1, f2 = random_psi(grid, rng, decay=1.0), random_psi(grid, rng, decay=1.0)
        state = tf.PairState(psi1, psi2)
        stepped = tf.step_pair(state, cfg, spec, f1, f2)
        from twinflow.fieldops import stream_force_term

        ref1, ref2 = scalar_reference_pair_step(
            state, cfg.nu, cfg.dt, spec,
            stream_force_term(f1).coeffs, stream_force_term(f2).coeffs,
        )
        scale = max(np.max(np.abs(ref1)), np.max(np.abs(ref2)))
        assert np.max(np.abs(stepped.psi1.coeffs - ref1)) <= 1e-12 * scale
        assert np.max(np.abs(stepped.psi2.coeffs - ref2)) <= 1e-12 * scale

    def test_mutual_sync_low_mode_per_step_contraction(self, grid32, forced_cfg, rng):
        # with shared force and theta1 + theta2 = 1 the projected
        # difference contracts by exactly the viscous factor per mode
        cutoff = 5.0
        spec = tf.IntertwinementSpec("mutual_sync", cutoff, theta1=0.5)
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        efac = np.exp(-forced_cfg.nu * grid32.ksq * forced_cfg.dt)
        for _ in range(5):
            before = tf.project_low(state.psi1 - state.psi2, cutoff)
            state = tf.step_pair(state, forced_cfg, spec, f, f)
            after = tf.project_low(state.psi1 - state.psi2, cutoff)
            expected = efac * before.coeffs
            mask = grid32.kmag <= cutoff
            num = np.max(np.abs(after.coeffs - expected)[mask])
            den = np.max(np.abs(before.coeffs)) or 1.0
            assert num <= 1e-13 * den

    def test_degenerate_sync_low_modes_stay_matched(self, grid32, forced_cfg, rng):
        cutoff = 5.0
        spec = tf.IntertwinementSpec("degenerate_sync", cutoff)
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        psi1 = random_psi(grid32, rng)
        state = tf.PairState(psi1, tf.project_low(psi1, cutoff))
        state = advance(state, forced_cfg, spec, f, f, 100)
        drift = tf.norm_hn(
            tf.project_low(state.psi1 - state.psi2, cutoff), 1
        )
        assert drift <= 1e-12 * tf.norm_hn(psi1, 1)

    def test_energy_decreases_without_force(self, grid64, rng):
        cfg = tf.SimConfig(nu=0.01, dt=0.005, grid=grid64)
        psi = random_psi(grid64, rng)
        f0 = zero_force(grid64)
        prev = tf.norm_hn(psi, 1)
        for _ in range(1000):
            psi = tf.step_single(psi, cfg, f0)
            cur = tf.norm_hn(psi, 1)
            assert cur <= prev * (1 + 1e-9)
            prev = cur


def assert_exact_state(psi):
    """Exactly Hermitian, dealiased, and mean-free: what the stepper hands out."""
    assert hermitian_defect(psi) == 0.0
    assert not np.any(psi.coeffs[~psi.grid.dealias_mask])
    assert psi.coeffs[0, 0] == 0.0


VARIANT_SPECS = [
    tf.IntertwinementSpec("trivial", 5.0),
    tf.IntertwinementSpec("mutual_sync", 5.0, theta1=0.25),
    tf.IntertwinementSpec("symmetric_nudge", 5.0, mu1=5.0, mu2=2.0),
    tf.IntertwinementSpec("general_sync", 5.0, matrix=(0.7, 0.3, 0.6, 0.4)),
]


class TestOneStepPath:
    @pytest.mark.parametrize("spec", VARIANT_SPECS, ids=lambda s: s.variant)
    def test_step_pair_k_times_equals_advance(self, grid32, forced_cfg, rng, spec):
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        start = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 0.25, 3)
        state = start
        for _ in range(7):
            state = tf.step_pair(state, forced_cfg, spec, f, f)
        batched = advance(start, forced_cfg, spec, f, f, 7)
        assert np.array_equal(state.psi1.coeffs, batched.psi1.coeffs)
        assert np.array_equal(state.psi2.coeffs, batched.psi2.coeffs)
        assert (state.t, state.step_index) == (batched.t, batched.step_index)

    def test_step_single_k_times_equals_decorrelate(self, grid32, forced_cfg, rng):
        psi0 = random_psi(grid32, rng)
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        psi = psi0
        for _ in range(7):
            psi = tf.step_single(psi, forced_cfg, f)
        batched = tf.decorrelate(psi0, forced_cfg, 7 * forced_cfg.dt)
        assert np.array_equal(psi.coeffs, batched.coeffs)

    @pytest.mark.parametrize("spec", VARIANT_SPECS, ids=lambda s: s.variant)
    def test_pair_states_handed_out_are_exact(self, grid32, forced_cfg, rng, spec):
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        start = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        seen = []
        final = advance(start, forced_cfg, spec, f, f, 6, seen.append, 2)
        assert [s.step_index for s in seen] == [0, 2, 4, 6]
        assert seen[-1] is final
        stepped = tf.step_pair(start, forced_cfg, spec, f, f)
        for state in seen[1:] + [stepped]:
            assert_exact_state(state.psi1)
            assert_exact_state(state.psi2)

    def test_single_states_and_checkpoints_are_exact(self, grid32, forced_cfg, rng,
                                                     tmp_path):
        f = tf.make_band_forcing(forced_cfg.forcing, grid32)
        spun = tf.spin_up(forced_cfg, 0.3, checkpoint_dir=tmp_path, checkpoint_every=0.1)
        ckpts = sorted(tmp_path.glob("spinup_*.ckpt"))
        assert len(ckpts) == 3
        states = [spun, tf.decorrelate(spun, forced_cfg, 0.05),
                  tf.step_single(random_psi(grid32, rng), forced_cfg, f)]
        for path in ckpts:
            state, _ = load_checkpoint(path)
            states += [state.psi1, state.psi2]
        for psi in states:
            assert_exact_state(psi)


class TestBlowUpDetection:
    def test_nonfinite_detected(self, grid32, small_cfg):
        c = np.zeros(grid32.shape, dtype=np.complex128)
        c[1, 0] = c[-1, 0] = np.nan
        bad = tf.SpectralField(grid32, c)
        with pytest.raises(BlowUpError, match="non-finite"):
            tf.step_single(bad, small_cfg, zero_force(grid32))

    @pytest.mark.parametrize("mode", [(1, 0), (3, 16), (2, 5)])
    def test_nonfinite_detected_in_pair(self, grid32, small_cfg, rng, mode):
        # column 0, column N/2 and an interior column of the half-plane
        c = np.array(random_psi(grid32, rng).coeffs)
        k1, k2 = mode
        c[k1, k2] = c[-k1, -k2] = np.nan
        state = tf.PairState(random_psi(grid32, rng), tf.SpectralField(grid32, c))
        spec = tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=1.0, mu2=1.0)
        with pytest.raises(BlowUpError, match="non-finite"):
            tf.step_pair(state, small_cfg, spec, zero_force(grid32), zero_force(grid32))

    def test_runaway_magnitude_detected(self, grid32, forced_cfg, rng):
        huge = random_psi(grid32, rng, scale=1e12)
        with pytest.raises(BlowUpError, match="absorbing radius"):
            tf.step_single(huge, forced_cfg, zero_force(grid32))


class TestSpinUpDecorrelate:
    def test_zero_duration_spin_up(self, forced_cfg):
        psi = tf.spin_up(forced_cfg, 0.0)
        assert not np.any(psi.coeffs)

    def test_spin_up_injects_energy(self, forced_cfg):
        psi = tf.spin_up(forced_cfg, 2.0)
        assert tf.norm_hn(psi, 1) > 0

    def test_restart_bit_exact(self, forced_cfg, tmp_path):
        full = tf.spin_up(forced_cfg, 1.0)
        tf.spin_up(forced_cfg, 0.5, checkpoint_dir=tmp_path, checkpoint_every=0.5)
        ckpts = sorted(tmp_path.glob("spinup_*.ckpt"))
        assert ckpts
        state, dt = load_checkpoint(ckpts[-1], forced_cfg.grid)
        psi = state.psi1
        f = tf.make_band_forcing(forced_cfg.forcing, forced_cfg.grid)
        for _ in range(50):
            psi = tf.step_single(psi, forced_cfg, f)
        assert np.array_equal(psi.coeffs, full.coeffs)

    def test_decorrelate_zero_duration_is_identity(self, forced_cfg, rng):
        psi = random_psi(forced_cfg.grid, rng)
        out = tf.decorrelate(psi, forced_cfg, 0.0)
        assert np.array_equal(out.coeffs, psi.coeffs)

    def test_determinism_across_runs(self, forced_cfg):
        a = tf.spin_up(forced_cfg, 0.5)
        b = tf.spin_up(forced_cfg, 0.5)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, grid32, rng, tmp_path):
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 3.5, 700)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, 0.005, path)
        back, dt = load_checkpoint(path)
        assert dt == 0.005
        assert back.t == state.t and back.step_index == state.step_index
        assert np.array_equal(back.psi1.coeffs, state.psi1.coeffs)
        assert np.array_equal(back.psi2.coeffs, state.psi2.coeffs)

    def test_corrupted_magic_rejected(self, grid32, rng, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)),
                        0.01, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_truncated_rejected(self, grid32, rng, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)),
                        0.01, path)
        trunc = tmp_path / "trunc.ckpt"
        trunc.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(trunc)

    def test_crc_mismatch_rejected(self, grid32, rng, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)),
                        0.01, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0x01  # flip a payload bit
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(bad)

    def test_resolution_mismatch_names_both(self, grid32, rng, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)),
                        0.01, path)
        with pytest.raises(CheckpointError, match="32.*64"):
            load_checkpoint(path, tf.SpectralGrid(64))
