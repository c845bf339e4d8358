import numpy as np
import pytest

import twinflow as tf
from twinflow.forcing import force_sup_norm
from twinflow.spectral import zero_field

from oracles import hermitian_defect, lattice_ksq


NU = 0.0005


@pytest.fixture
def force(grid64):
    return tf.make_band_forcing(tf.ForcingSpec(10, 12, 1e5, phase_seed=7), grid64, NU)


class TestMakeBandForcing:
    def test_grashof_hits_target_exactly(self, force):
        assert tf.grashof(force, NU) == pytest.approx(1e5, rel=1e-12)

    def test_support_annulus(self, force):
        assert force.coeffs[3, 1] != 0  # |k|^2 = 10
        assert force.coeffs[3, 0] == 0  # |k|^2 = 9
        assert force.coeffs[4, 0] == 0  # |k|^2 = 16
        ksq = lattice_ksq(force.grid)
        outside = (ksq < 10) | (ksq > 12)
        assert not np.any(force.coeffs[outside])

    def test_deterministic_across_calls(self, grid64):
        spec = tf.ForcingSpec(10, 12, 1e5, phase_seed=42)
        a = tf.make_band_forcing(spec, grid64, NU)
        b = tf.make_band_forcing(spec, grid64, NU)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_seed_changes_phases_not_magnitude(self, grid64):
        a = tf.make_band_forcing(tf.ForcingSpec(10, 12, 1e5, phase_seed=1), grid64, NU)
        b = tf.make_band_forcing(tf.ForcingSpec(10, 12, 1e5, phase_seed=2), grid64, NU)
        assert not np.array_equal(a.coeffs, b.coeffs)
        assert np.allclose(np.abs(a.coeffs), np.abs(b.coeffs))

    def test_real_valued_force(self, force):
        assert hermitian_defect(force) <= 1e-15 * np.max(np.abs(force.coeffs))

    def test_empty_band_error(self, grid64):
        with pytest.raises(ValueError, match="no lattice modes"):
            tf.make_band_forcing(tf.ForcingSpec(11, 11, 1e5), grid64, NU)

    def test_nonpositive_viscosity_rejected(self, grid64, force):
        # NaN fails every comparison, so it must fail the check as well
        for nu in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="viscosity must be positive"):
                tf.make_band_forcing(tf.ForcingSpec(10, 12, 1e5), grid64, nu)
            with pytest.raises(ValueError, match="viscosity must be positive"):
                tf.grashof(force, nu)
            with pytest.raises(ValueError, match="viscosity must be positive"):
                tf.absorbing_radii(force, nu)

    def test_band_order_validated(self):
        with pytest.raises(ValueError):
            tf.ForcingSpec(12, 10, 1e5)

    def test_sup_norm_renormalization(self, grid64):
        spec = tf.ForcingSpec(10, 12, 1e5, phase_seed=7, norm_kind="linf")
        f = tf.make_band_forcing(spec, grid64, NU)
        assert force_sup_norm(f) / NU**2 == pytest.approx(1e5, rel=1e-12)


class TestGrashof:
    def test_arithmetic(self, grid64, force):
        scaled = (0.025 / tf.norm_hn(force, 0)) * force
        assert tf.grashof(scaled, NU) == pytest.approx(1e5, rel=1e-12)

    def test_zero_force(self, grid64):
        assert tf.grashof(zero_field(grid64), NU) == 0.0

    def test_linear_scaling(self, force):
        assert tf.grashof(2.0 * force, NU) == pytest.approx(
            2.0 * tf.grashof(force, NU), rel=1e-13
        )

    def test_rejects_bad_viscosity(self, force):
        with pytest.raises(ValueError):
            tf.grashof(force, 0.0)


class TestShapeFactor:
    def test_single_shell(self, force):
        # the 10..12 band only holds the |k|^2 = 10 shell on the lattice
        assert tf.shape_factor(force, 1) == pytest.approx(np.sqrt(10), rel=1e-12)
        assert np.sqrt(10) <= tf.shape_factor(force, 1) <= np.sqrt(12)

    def test_order_zero_is_one(self, force):
        assert tf.shape_factor(force, 0) == pytest.approx(1.0, rel=1e-13)

    def test_zero_force_rejected(self, grid64):
        with pytest.raises(ValueError):
            tf.shape_factor(zero_field(grid64), 1)


class TestAbsorbingRadii:
    def test_rho1_arithmetic(self, force):
        _, rho1 = tf.absorbing_radii(force, NU)
        assert rho1 == pytest.approx(NU * 1e5, rel=1e-12)

    def test_single_shell_ratio(self, force):
        rho0, rho1 = tf.absorbing_radii(force, NU)
        assert rho0 == pytest.approx(rho1 / np.sqrt(10), rel=1e-12)

    def test_doubling_force_doubles_radii(self, force):
        r0, r1 = tf.absorbing_radii(force, NU)
        d0, d1 = tf.absorbing_radii(2.0 * force, NU)
        assert d0 == pytest.approx(2 * r0, rel=1e-13)
        assert d1 == pytest.approx(2 * r1, rel=1e-13)

    def test_zero_force_rejected(self, grid64):
        with pytest.raises(ValueError):
            tf.absorbing_radii(zero_field(grid64), NU)
