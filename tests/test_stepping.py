import os
import struct
import zlib
from dataclasses import replace

import twinflow.stepping

import numpy as np
import pytest

import twinflow as tf
from twinflow.fieldops import stream_force_term
from twinflow.spectral import zero_field
from twinflow.stepping import (
    BlowUpError,
    CheckpointError,
    _check_finite,
    _step_constants,
    advance,
    load_checkpoint,
    save_checkpoint,
)

from conftest import hermitian_part, random_psi, sub, tiny_config
from oracles import (
    checkpoint_bytes,
    dealias_mask,
    hermitian_defect,
    lattice_checkpoint_bytes,
    lattice_field,
    lattice_kmag,
    lattice_ksq,
    scalar_reference_pair_step,
    step_single,
)


def shear_mode(grid, amplitude=1.0):
    # cos(y) built directly in spectral space: exact, no transform noise
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[0, 1] = c[0, -1] = amplitude / 2.0
    return lattice_field(grid, c)


@pytest.fixture
def cfg32():
    # nu = dt = 0.01 at 32^2; its force sets the blow-up limit and drives
    # every stepping entry point; ``step_single`` takes any force
    return tiny_config()


def zero_force(grid):
    return zero_field(grid)


class TestIntegratingFactor:
    def test_pure_diffusion_exact(self, grid32, cfg32):
        psi = shear_mode(grid32)
        f0 = zero_force(grid32)
        amp0 = tf.norm_hn(psi, 1)
        n = 200
        for _ in range(n):
            psi = step_single(psi, cfg32, f0)
        expected = amp0 * np.exp(-cfg32.nu * n * cfg32.dt)
        assert tf.norm_hn(psi, 1) == pytest.approx(expected, rel=1e-12)

    def test_nonlinear_term_exactly_zero_for_shear(self, grid32, cfg32):
        psi0 = shear_mode(grid32)
        psi1 = step_single(psi0, cfg32, zero_force(grid32))
        efac = np.exp(-cfg32.nu * 1.0 * cfg32.dt)
        nz = np.abs(psi0.coeffs) > 0
        assert np.array_equal(psi1.coeffs[nz], efac * psi0.coeffs[nz])


class TestPairStep:
    def test_single_equals_trivial_pair(self, grid32, cfg32, rng):
        psi = random_psi(grid32, rng)
        f = tf.make_band_forcing(cfg32.forcing, grid32, cfg32.nu)
        single = step_single(psi, cfg32, f)
        trivial = replace(cfg32, coupling=tf.IntertwinementSpec("trivial", 5.0))
        pair = advance(tf.PairState(psi, psi), trivial, 1)
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
            ("general_nudge", dict(matrix=(1.0, 3.0, 0.5, 2.0))),
            ("general_sync", dict(matrix=(0.7, 0.3, 0.6, 0.4))),
        ],
    )
    def test_against_scalar_reference_at_res8(self, rng, variant, kwargs):
        # independent per-mode reference: convolution nonlinearity plus
        # plain python integrating-factor arithmetic. At 8^2 the bands
        # 1 <= |k|^2 <= 8 hold every mode of the block, and system 2 has a
        # force of its own
        grid = tf.SpectralGrid(8)
        spec = tf.IntertwinementSpec(variant, 2.0, **kwargs)
        cfg = tiny_config(resolution=8, nu=0.05, dt=0.02,
                          forcing=tf.ForcingSpec(1, 8, 500.0, 3),
                          forcing2=tf.ForcingSpec(1, 8, 300.0, 11), coupling=spec)
        psi1, psi2 = random_psi(grid, rng, decay=1.0), random_psi(grid, rng, decay=1.0)
        f1, f2 = (tf.make_band_forcing(f, grid, cfg.nu) for f in (cfg.forcing, cfg.forcing2))
        state = tf.PairState(psi1, psi2)
        stepped = advance(state, cfg, 1)
        ref1, ref2 = scalar_reference_pair_step(
            state, cfg.nu, cfg.dt, spec,
            stream_force_term(f1).coeffs, stream_force_term(f2).coeffs,
        )
        scale = max(np.max(np.abs(ref1)), np.max(np.abs(ref2)))
        assert np.max(np.abs(stepped.psi1.coeffs - ref1)) <= 1e-12 * scale
        assert np.max(np.abs(stepped.psi2.coeffs - ref2)) <= 1e-12 * scale

    def test_mutual_sync_low_mode_per_step_contraction(self, grid32, cfg32, rng):
        # with shared force and theta1 + theta2 = 1 the projected
        # difference contracts by exactly the viscous factor per mode
        cutoff = 5.0
        cfg = replace(cfg32, coupling=tf.IntertwinementSpec("mutual_sync", cutoff, theta1=0.5))
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        efac = np.exp(-cfg.nu * lattice_ksq(grid32) * cfg.dt)
        for _ in range(5):
            before = tf.project_low(sub(state.psi1, state.psi2), cutoff)
            state = advance(state, cfg, 1)
            after = tf.project_low(sub(state.psi1, state.psi2), cutoff)
            expected = efac * before.coeffs
            mask = lattice_kmag(grid32) <= cutoff
            num = np.max(np.abs(after.coeffs - expected)[mask])
            den = np.max(np.abs(before.coeffs)) or 1.0
            assert num <= 1e-13 * den

    def test_degenerate_sync_low_modes_stay_matched(self, grid32, cfg32, rng):
        cutoff = 5.0
        cfg = replace(cfg32, coupling=tf.IntertwinementSpec("degenerate_sync", cutoff))
        psi1 = random_psi(grid32, rng)
        state = tf.PairState(psi1, tf.project_low(psi1, cutoff))
        state = advance(state, cfg, 100)
        drift = tf.norm_hn(tf.project_low(sub(state.psi1, state.psi2), cutoff), 1)
        assert drift <= 1e-12 * tf.norm_hn(psi1, 1)

    def test_energy_decreases_without_force(self, grid64, rng):
        cfg = tiny_config(resolution=64, dt=0.005)
        psi = random_psi(grid64, rng)
        f0 = zero_force(grid64)
        prev = tf.norm_hn(psi, 1)
        for _ in range(1000):
            psi = step_single(psi, cfg, f0)
            cur = tf.norm_hn(psi, 1)
            assert cur <= prev * (1 + 1e-9)
            prev = cur


def assert_exact_state(psi):
    """Exactly Hermitian, dealiased, and mean-free: what the stepper hands out."""
    assert hermitian_defect(psi) == 0.0
    assert not np.any(psi.coeffs[~dealias_mask(psi.grid)])
    assert psi.coeffs[0, 0] == 0.0


VARIANT_SPECS = [
    tf.IntertwinementSpec("trivial", 5.0),
    tf.IntertwinementSpec("mutual_sync", 5.0, theta1=0.25),
    tf.IntertwinementSpec("symmetric_nudge", 5.0, mu1=5.0, mu2=2.0),
    tf.IntertwinementSpec("general_sync", 5.0, matrix=(0.7, 0.3, 0.6, 0.4)),
]


class TestOneStepPath:
    @pytest.mark.parametrize("spec", VARIANT_SPECS, ids=lambda s: s.variant)
    def test_step_pair_k_times_equals_advance(self, grid32, cfg32, rng, spec):
        cfg = replace(cfg32, coupling=spec)
        start = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 0.25, 3)
        state = start
        for _ in range(7):
            state = advance(state, cfg, 1)
        batched = advance(start, cfg, 7)
        assert np.array_equal(state.psi1.coeffs, batched.psi1.coeffs)
        assert np.array_equal(state.psi2.coeffs, batched.psi2.coeffs)
        assert (state.t, state.step_index) == (batched.t, batched.step_index)

    def test_step_single_k_times_equals_decorrelate(self, grid32, cfg32, rng):
        psi0 = random_psi(grid32, rng)
        f = tf.make_band_forcing(cfg32.forcing, grid32, cfg32.nu)
        psi = psi0
        for _ in range(7):
            psi = step_single(psi, cfg32, f)
        batched = tf.decorrelate(psi0, cfg32, 7 * cfg32.dt)
        assert np.array_equal(psi.coeffs, batched.coeffs)

    @pytest.mark.parametrize("spec", VARIANT_SPECS, ids=lambda s: s.variant)
    def test_modes_outside_block_are_projected_away(self, grid32, cfg32, rng, spec,
                                                    tmp_path):
        # a v1 file with energy outside the 2/3 mask, Hermitian: loading it
        # drops that energy, so the state steps as the dealiased one
        cfg = replace(cfg32, coupling=spec)
        mask = dealias_mask(grid32)
        rough = [hermitian_part(np.fft.fft2(0.01 * rng.standard_normal(grid32.shape),
                                            norm="forward")) for _ in range(2)]
        for c in rough:
            c[0, 0] = 0.0
        assert all(np.any(c[~mask]) for c in rough)
        lattices = [c + random_psi(grid32, rng).coeffs for c in rough]
        path = tmp_path / "rough.ckpt"
        path.write_bytes(lattice_checkpoint_bytes(32, cfg.dt, 0.5, 2, lattices))
        start, _ = load_checkpoint(path)
        clean = tf.PairState(*(lattice_field(grid32, c * mask) for c in lattices), 0.5, 2)
        assert np.array_equal(start.psi1.block, clean.psi1.block)
        assert np.array_equal(start.psi2.block, clean.psi2.block)
        a = advance(start, cfg, 3)
        b = advance(clean, cfg, 3)
        assert np.array_equal(a.psi1.coeffs, b.psi1.coeffs)
        assert np.array_equal(a.psi2.coeffs, b.psi2.coeffs)

    @pytest.mark.parametrize("spec", VARIANT_SPECS, ids=lambda s: s.variant)
    def test_pair_states_handed_out_are_exact(self, grid32, cfg32, rng, spec):
        cfg = replace(cfg32, coupling=spec)
        start = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        seen = []

        assert advance(start, cfg, 0, seen.append) is start
        final = advance(start, cfg, 6, seen.append, 2)
        # the observer sees stepped pairs only, never the input
        assert [pair.step_index for pair in seen] == [2, 4, 6]
        last = seen[-1]
        assert np.array_equal(last.psi1.block, final.psi1.block)
        assert np.array_equal(last.psi2.block, final.psi2.block)
        assert (last.t, last.step_index) == (final.t, final.step_index)
        stepped = advance(start, cfg, 1)
        for pair in seen + [final, stepped]:
            assert_exact_state(pair.psi1)
            assert_exact_state(pair.psi2)

    def test_fields_kept_from_an_observer_do_not_change(self, grid32, cfg32, rng):
        # no step writes a stack it has handed out
        kept = []

        def observer(pair):
            kept.append((pair, pair.psi1.block.copy(), pair.psi2.block.copy(), pair.t,
                         pair.step_index))

        advance(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)), cfg32, 4,
                observer)
        assert [pair.step_index for pair, *_ in kept] == [1, 2, 3, 4]
        for pair, block1, block2, t, step in kept:
            assert np.array_equal(pair.psi1.block, block1)
            assert np.array_equal(pair.psi2.block, block2)
            assert (pair.t, pair.step_index) == (t, step)
        assert not np.array_equal(kept[0][1], kept[-1][1])
        assert not np.array_equal(kept[0][2], kept[-1][2])

    def test_advance_leaves_its_input_as_it_was(self, grid32, cfg32, rng):
        psi1, psi2 = random_psi(grid32, rng), random_psi(grid32, rng)
        start = tf.PairState(psi1, psi2, 0.5, 3)
        # a state is its two fields: nothing is copied on read
        assert start.psi1 is psi1 and start.psi2 is psi2
        blocks = [psi1.block.copy(), psi2.block.copy()]
        final = advance(start, cfg32, 3)
        assert np.array_equal(start.psi1.block, blocks[0])
        assert np.array_equal(start.psi2.block, blocks[1])
        for a in (final.psi1.block, final.psi2.block):
            for b in (psi1.block, psi2.block):
                assert not np.shares_memory(a, b)

    def test_single_states_and_checkpoints_are_exact(self, grid32, cfg32, rng,
                                                     tmp_path):
        f = tf.make_band_forcing(cfg32.forcing, grid32, cfg32.nu)
        spun = tf.spin_up(cfg32, 0.3, checkpoint_dir=tmp_path, checkpoint_every=0.1)
        ckpts = sorted(tmp_path.glob("spinup_*.ckpt"))
        assert len(ckpts) == 3
        states = [spun, tf.decorrelate(spun, cfg32, 0.05),
                  step_single(random_psi(grid32, rng), cfg32, f)]
        for path in ckpts:
            state, _ = load_checkpoint(path)
            states += [state.psi1, state.psi2]
        for psi in states:
            assert_exact_state(psi)


class TestBlowUpDetection:
    def test_nonfinite_detected(self, grid32, cfg32):
        c = np.zeros(grid32.shape, dtype=np.complex128)
        c[1, 0] = c[-1, 0] = np.nan
        bad = lattice_field(grid32, c)
        with pytest.raises(BlowUpError, match="non-finite"):
            step_single(bad, cfg32, zero_force(grid32))

    @pytest.mark.parametrize("mode", [(1, 0), (3, 10), (2, 5)])
    def test_nonfinite_detected_in_pair(self, grid32, cfg32, rng, mode):
        # column 0, the last column ky = K and an interior column of the
        # block: the stepper checks its input blocks before the first step
        c = np.array(random_psi(grid32, rng).coeffs)
        k1, k2 = mode
        c[k1, k2] = c[-k1, -k2] = np.nan
        cfg = replace(cfg32, coupling=tf.IntertwinementSpec("mutual_nudge", 5.0, mu1=1.0,
                                                            mu2=1.0))
        state = tf.PairState(random_psi(grid32, rng), lattice_field(grid32, c))
        with pytest.raises(BlowUpError, match="non-finite"):
            advance(state, cfg, 1)

    def test_nonfinite_outside_block_only_in_a_checkpoint(self, grid32, rng, tmp_path):
        # a field cannot hold column N/2; a v1 file can, and its reader
        # checks the whole stored lattice
        c = np.array(random_psi(grid32, rng).coeffs)
        c[3, 16] = c[-3, 16] = np.nan
        path = tmp_path / "nan.ckpt"
        path.write_bytes(lattice_checkpoint_bytes(32, 0.01, 0.0, 0, [c, c]))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_runaway_magnitude_detected(self, grid32, cfg32, rng):
        huge = random_psi(grid32, rng, scale=1e12)
        with pytest.raises(BlowUpError, match="absorbing radius"):
            step_single(huge, cfg32, zero_force(grid32))

    def test_runaway_second_system_detected(self, grid32, rng):
        # one check reduces over the whole stack: system 2 alone runs away
        # (dt = 0.05 under a Grashof 10^6 force, as below), past 10^6 times
        # the absorbing radius of ``forcing``, while system 1 stays bounded
        cfg = tiny_config(dt=0.05, coupling=tf.IntertwinementSpec("trivial", 5.0))
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        advance(state, cfg, 40)
        runaway = replace(cfg, forcing2=tf.ForcingSpec(10, 12, 1e6, phase_seed=3))
        with pytest.raises(BlowUpError, match="absorbing radius") as info:
            advance(state, runaway, 40)
        assert info.value.t > 0

    @staticmethod
    def shear_at_speed(grid, cfg, ratio):
        """A pure cos(x) shear (nonlinear term exactly 0) with ``|u|`` at
        ``ratio`` times the blow-up limit, as a pair stack, and the limit
        and bound of ``_check_finite``."""
        _, limit, safe_power = _step_constants(grid, cfg.nu, cfg.dt, cfg.forcing)
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[1, 0] = c[-1, 0] = 0.5
        psi = lattice_field(grid, c * (ratio * limit / tf.norm_hn(lattice_field(grid, c), 1)))
        ps = np.stack([psi.block, psi.block])
        # at 32^2 the largest weight is 400: the stack's plain power times
        # it fails the one-reduction bound, and the exact sums decide
        power = ps.view(np.float64)
        assert np.vdot(power, power) > safe_power
        return psi, ps, limit, safe_power

    def test_bound_fails_every_block_inside_limit(self, grid32, cfg32):
        psi, ps, limit, safe_power = self.shear_at_speed(grid32, cfg32, 0.5)
        assert _check_finite(ps, grid32.block_weights, limit, safe_power, 0.0) is None
        stepped = step_single(psi, cfg32, zero_force(grid32))
        assert np.array_equal(stepped.block, np.exp(-cfg32.nu * cfg32.dt) * psi.block)

    def test_bound_fails_block_past_limit(self, grid32, cfg32):
        psi, ps, limit, safe_power = self.shear_at_speed(grid32, cfg32, 1.01)
        with pytest.raises(BlowUpError, match="absorbing radius"):
            _check_finite(ps, grid32.block_weights, limit, safe_power, 0.0)
        with pytest.raises(BlowUpError, match="absorbing radius"):
            step_single(psi, cfg32, zero_force(grid32))

    def test_spin_up_blow_up_names_newest_checkpoint(self, tmp_path):
        # dt = 0.05 under a Grashof 10^6 force is past the explicit step's
        # stability limit: the spin-up blows up after some checkpoints
        cfg = tiny_config(dt=0.05, forcing=tf.ForcingSpec(10, 12, 1e6, phase_seed=3))
        with pytest.raises(BlowUpError) as info:
            tf.spin_up(cfg, 5.0, checkpoint_dir=tmp_path, checkpoint_every=0.25)
        newest = sorted(tmp_path.glob("spinup_*.ckpt"))[-1]
        assert info.value.last_checkpoint == str(newest)
        assert str(newest) in str(info.value)
        state, dt = load_checkpoint(newest)  # length and CRC checked
        blown = int(round(info.value.t / cfg.dt))
        assert dt == cfg.dt
        assert blown - 5 <= state.step_index < blown


class TestOneBlowUpCheck:
    """Every blow-up check is one ``_check_finite`` call over the stack:
    one on the input, one after every step."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = twinflow.stepping._check_finite

        def counted(ps, *args, **kwargs):
            calls.append(len(ps))
            return check(ps, *args, **kwargs)

        monkeypatch.setattr(twinflow.stepping, "_check_finite", counted)
        return calls

    def test_pair_advance(self, grid32, cfg32, rng, checks):
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        advance(state, cfg32, 7)
        assert checks == [2] * 8

    def test_spin_up(self, cfg32, checks):
        tf.spin_up(cfg32, 0.1)
        assert checks == [1] * (cfg32.steps(0.1) + 1)


class TestInputChecks:
    """The loop refuses a state on another grid than the config's and a
    negative step count before it steps, for every entry point."""

    @pytest.mark.parametrize("nsteps", [0, 3])
    def test_advance_state_on_another_grid(self, cfg32, rng, nsteps):
        grid = tf.SpectralGrid(64)
        state = tf.PairState(random_psi(grid, rng), random_psi(grid, rng))
        with pytest.raises(ValueError, match=r"64\^2 grid.*grid is 32\^2"):
            advance(state, cfg32, nsteps)

    @pytest.mark.parametrize("duration", [0.0, 0.03])
    def test_decorrelate_state_on_another_grid(self, cfg32, rng, duration):
        psi = random_psi(tf.SpectralGrid(64), rng)
        with pytest.raises(ValueError, match=r"64\^2 grid.*grid is 32\^2"):
            tf.decorrelate(psi, cfg32, duration)

    def test_advance_negative_step_count(self, grid32, cfg32, rng):
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        with pytest.raises(ValueError, match="nsteps must be non-negative, got -3"):
            advance(state, cfg32, -3)


class TestTransformCount:
    """Each axis pass of a step is one FFT call for both velocity
    components and every block of the stack: four calls per step."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                     "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
            def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    def test_coupled_pair_step(self, grid32, cfg32, rng, fft_calls):
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng))
        advance(state, cfg32, 1)  # builds the cached force fields and step constants
        fft_calls.clear()
        advance(state, cfg32, 1)
        assert fft_calls == ["ifft", "irfft", "rfft", "fft"]

    def test_single_flow_step(self, grid32, cfg32, rng, fft_calls):
        psi = random_psi(grid32, rng)
        tf.decorrelate(psi, cfg32, cfg32.dt)
        fft_calls.clear()
        tf.decorrelate(psi, cfg32, cfg32.dt)
        assert fft_calls == ["ifft", "irfft", "rfft", "fft"]


class TestSpinUpDecorrelate:
    def test_zero_duration_spin_up(self, cfg32):
        psi = tf.spin_up(cfg32, 0.0)
        assert not np.any(psi.coeffs)

    def test_spin_up_injects_energy(self, cfg32):
        psi = tf.spin_up(cfg32, 2.0)
        assert tf.norm_hn(psi, 1) > 0

    def test_restart_bit_exact(self, cfg32, tmp_path):
        full = tf.spin_up(cfg32, 1.0)
        tf.spin_up(cfg32, 0.5, checkpoint_dir=tmp_path, checkpoint_every=0.5)
        ckpts = sorted(tmp_path.glob("spinup_*.ckpt"))
        assert ckpts
        state, dt = load_checkpoint(ckpts[-1], cfg32.grid)
        psi = state.psi1
        f = tf.make_band_forcing(cfg32.forcing, cfg32.grid, cfg32.nu)
        for _ in range(50):
            psi = step_single(psi, cfg32, f)
        assert np.array_equal(psi.coeffs, full.coeffs)

    @pytest.mark.parametrize(
        "entry, duration",
        [("spin_up", 1e308), ("decorrelate", np.inf), ("spin_up", np.nan),
         ("spin_up", -1.0), ("decorrelate", -1.0)],
    )
    def test_duration_without_step_count_rejected(self, cfg32, rng, entry, duration):
        # a duration whose step count is negative or not finite
        args = (cfg32,) if entry == "spin_up" else (random_psi(cfg32.grid, rng), cfg32)
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            getattr(tf, entry)(*args, duration)

    def test_decorrelate_zero_duration_is_identity(self, cfg32, rng):
        psi = random_psi(cfg32.grid, rng)
        out = tf.decorrelate(psi, cfg32, 0.0)
        assert np.array_equal(out.coeffs, psi.coeffs)

    def test_determinism_across_runs(self, cfg32):
        a = tf.spin_up(cfg32, 0.5)
        b = tf.spin_up(cfg32, 0.5)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_checkpoint_cadence_defaults_to_the_config(self, cfg32, tmp_path):
        tf.spin_up(replace(cfg32, checkpoint_every=0.1), 0.3, checkpoint_dir=tmp_path)
        assert [p.name for p in sorted(tmp_path.glob("spinup_*.ckpt"))] == [
            f"spinup_{step:09d}.ckpt" for step in (10, 20, 30)]

    def test_progress_follows_each_checkpoint(self, cfg32, tmp_path):
        calls = []

        def progress(t):
            # the interval's rolling checkpoint is on disk, and is the newest
            written = sorted(tmp_path.glob("spinup_*.ckpt"))
            state, _ = load_checkpoint(written[-1])
            calls.append((int(round(t / cfg32.dt)), state.step_index, len(written)))

        tf.spin_up(cfg32, 0.3, checkpoint_dir=tmp_path, checkpoint_every=0.1,
                   progress=progress)
        assert calls == [(10, 10, 1), (20, 20, 2), (30, 30, 3)]


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

    def test_non_regular_file_rejected(self):
        # the reader maps the file, which a device or a pipe cannot be
        with pytest.raises(CheckpointError, match="not a regular file"):
            load_checkpoint(os.devnull)

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

    def test_bytes_match_independent_writer(self, grid32, rng, tmp_path):
        state = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 3.5, 700)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, 0.005, path)
        assert path.read_bytes() == checkpoint_bytes(state, 0.005)

    def test_failed_write_keeps_previous_file(self, grid32, rng, tmp_path, monkeypatch):
        path = tmp_path / "state.ckpt"
        old = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 1.0, 100)
        save_checkpoint(old, 0.01, path)
        before = path.read_bytes()
        crc32 = zlib.crc32
        calls = []

        def failing_crc32(data, value=0):
            # the header and the first array pass; the second raises
            calls.append(len(data))
            if len(calls) == 3:
                raise OSError("disk full")
            return crc32(data, value)

        monkeypatch.setattr(twinflow.stepping.zlib, "crc32", failing_crc32)
        new = tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng), 2.0, 200)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(new, 0.01, path)
        monkeypatch.undo()
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    @pytest.mark.parametrize("n", [0, 3, 5])
    def test_impossible_resolution_rejected(self, tmp_path, n):
        # a CRC-valid file whose header names a resolution no grid can have
        blob = struct.pack("<8sIIddQ", b"INTWNSE1", 1, n, 0.01, 0.0, 0)
        blob += bytes(2 * n * n * 16)
        blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
        path = tmp_path / "odd.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="resolution"):
            load_checkpoint(path)

    def test_resolution_mismatch_names_both(self, grid32, rng, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(tf.PairState(random_psi(grid32, rng), random_psi(grid32, rng)),
                        0.01, path)
        with pytest.raises(CheckpointError, match="32.*64"):
            load_checkpoint(path, tf.SpectralGrid(64))
