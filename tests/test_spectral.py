import numpy as np
import pytest

import twinflow as tf
from twinflow.spectral import SpectralField, low_mode_mask, zero_field

from conftest import hermitian_part, random_psi
from oracles import field_from_physical, full_lattice_norm, hermitian_defect


def single_mode(grid, k1, k2, amplitude=1.0):
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[k1 % grid.resolution, k2 % grid.resolution] = amplitude
    c[(-k1) % grid.resolution, (-k2) % grid.resolution] = np.conj(amplitude)
    return SpectralField(grid, c)


class TestGrid:
    def test_dealias_cutoff_is_two_thirds_nyquist(self):
        assert tf.SpectralGrid(512).dealias_cutoff == 512 / 3
        assert tf.SpectralGrid(128).dealias_cutoff == 128 / 3

    @pytest.mark.parametrize("bad", [0, 2, 7, 33])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ValueError):
            tf.SpectralGrid(bad)

    def test_wavenumber_lattice_is_bijective(self, grid64):
        pairs = set(zip(grid64.kx.ravel().tolist(), grid64.ky.ravel().tolist()))
        assert len(pairs) == 64 * 64
        assert max(abs(k) for k, _ in pairs) == 32

    @pytest.mark.parametrize("n", [32, 96])
    def test_wavenumbers_are_read_only_views(self, n):
        grid = tf.SpectralGrid(n)
        k1d = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
        for view, full, axis in ((grid.kx, kx, 1), (grid.ky, ky, 0)):
            assert not view.flags.writeable
            assert view.strides[axis] == 0
            assert np.array_equal(view, full)
        # the derived arrays, bitwise as built from the full meshgrid
        ksq = (kx * kx + ky * ky).astype(np.float64)
        assert grid.ksq.tobytes() == ksq.tobytes()
        assert grid.kmag.tobytes() == np.sqrt(ksq).tobytes()
        assert grid.ksq.flags.c_contiguous and grid.kmag.flags.c_contiguous


class TestDealias:
    def test_mode_just_above_cutoff_zeroed_at_512(self):
        # cutoff = 170.66..: 171 goes, 170 stays
        grid = tf.SpectralGrid(512)
        f = single_mode(grid, 171, 0) + single_mode(grid, 170, 0)
        d = f.coeffs * grid.dealias_mask
        assert d[171, 0] == 0
        assert d[170, 0] == 1.0


class TestProjections:
    def test_ball_boundary_inclusive(self, grid64):
        f = single_mode(grid64, 3, 4)  # |k| = 5
        assert np.array_equal(tf.project_low(f, 5.0).coeffs, f.coeffs)
        assert not np.any(tf.project_low(f, 4.9).coeffs)

    def test_high_complement(self, grid64):
        # the high part f - P_N f keeps exactly the modes outside the ball
        low = single_mode(grid64, 1, 0)
        high = single_mode(grid64, 0, 21)
        assert not np.any((low - tf.project_low(low, 50.0)).coeffs)
        assert np.array_equal((high - tf.project_low(high, 20.0)).coeffs, high.coeffs)

    def test_partition_idempotence_orthogonality(self, grid64, rng):
        x = random_psi(grid64, rng)
        y = random_psi(grid64, rng)
        for cutoff in (1.0, 7.5, 20.0, 50.0):
            p = tf.project_low(x, cutoff)
            q = x - p
            assert np.array_equal(p.coeffs + q.coeffs, x.coeffs)
            assert np.array_equal(tf.project_low(p, cutoff).coeffs, p.coeffs)
            assert not np.any(tf.project_low(q, cutoff).coeffs)
            y_high = y - tf.project_low(y, cutoff)
            assert np.vdot(p.coeffs, y_high.coeffs) == 0.0

    def test_cutoff_beyond_grid_is_identity_on_dealiased(self, grid64, rng):
        x = random_psi(grid64, rng)
        assert np.array_equal(tf.project_low(x, 50.0).coeffs, x.coeffs)

    def test_rejects_nonpositive_cutoff(self, grid64, rng):
        with pytest.raises(ValueError):
            tf.project_low(random_psi(grid64, rng), 0.0)

    def test_low_mode_mask_shared_and_read_only(self, grid64):
        mask = low_mode_mask(grid64, 7.5)
        assert low_mode_mask(tf.SpectralGrid(64), 7.5) is mask
        assert np.array_equal(mask, grid64.kmag <= 7.5)
        with pytest.raises(ValueError):
            mask[0, 0] = False


class TestNorms:
    def test_parseval_constant_against_quadrature(self, grid64, rng):
        # oracle: rectangle-rule quadrature of |u|^2 on the periodic grid
        for _ in range(5):
            f = random_psi(grid64, rng)
            phys = tf.to_physical(f)
            quad = np.sqrt(np.sum(phys**2) * (2 * np.pi / 64) ** 2)
            assert tf.norm_hn(f, 0) == pytest.approx(quad, rel=1e-10)

    def test_two_mode_example(self, grid64):
        # c at (1,0) and (-1,0): u = 2c cos(x), integral = 8 pi^2 c^2
        c = 0.7
        f = single_mode(grid64, 1, 0, c)
        expected = np.sqrt(8.0) * np.pi * c
        assert tf.norm_hn(f, 0) == pytest.approx(expected, rel=1e-13)
        # every mode on the |k|=1 shell: gradient norm equals the L2 norm
        assert tf.norm_hn(f, 1) == pytest.approx(tf.norm_hn(f, 0), rel=1e-13)

    def test_poincare(self, grid64, rng):
        for _ in range(5):
            f = random_psi(grid64, rng)
            assert tf.norm_hn(f, 1) >= tf.norm_hn(f, 0)

    def test_negative_order_rejects_mean_mode(self, grid64):
        c = np.zeros(grid64.shape, dtype=np.complex128)
        c[0, 0] = 1.0
        c[1, 0] = c[-1, 0] = 1.0
        bad = SpectralField(grid64, c)
        with pytest.raises(ValueError):
            tf.norm_hn(bad, -1)

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_half_plane_sum_matches_full_lattice(self, n):
        # not dealiased: the row kx = N/2 and the column ky = N/2 are
        # nonzero, so the column weights of the half-plane are exercised
        grid = tf.SpectralGrid(n)
        rng = np.random.default_rng(n)
        c = hermitian_part(rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape))
        c[0, 0] = 0.0
        assert np.all(c[n // 2, :] != 0) and np.all(c[:, n // 2] != 0)
        f = SpectralField(grid, c)
        for order in (-1, 0, 1, 2):
            assert tf.norm_hn(f, order) == pytest.approx(
                full_lattice_norm(f, order), rel=1e-13
            )

    def test_bernstein(self, grid64, rng):
        for _ in range(10):
            x = random_psi(grid64, rng, decay=1.0)
            for cutoff in (3.0, 10.0, 21.0):
                p = tf.project_low(x, cutoff)
                for m, n in ((-1, 0), (0, 1), (0, 2), (1, 2), (-1, 2)):
                    lhs = tf.norm_hn(p, n)
                    rhs = cutoff ** (n - m) * tf.norm_hn(p, m)
                    assert lhs <= rhs * (1 + 1e-12)


class TestTransforms:
    def test_round_trip(self, grid64, rng):
        f = random_psi(grid64, rng)
        phys = tf.to_physical(f)
        back = field_from_physical(grid64, phys)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_constructors_zero_mean(self, grid64, rng):
        f = field_from_physical(grid64, rng.standard_normal(grid64.shape) + 5.0)
        assert f.coeffs[0, 0] == 0.0

    def test_fields_are_hermitian_and_immutable(self, grid64, rng):
        f = random_psi(grid64, rng)
        assert hermitian_defect(f) <= 1e-15
        with pytest.raises(ValueError):
            f.coeffs[1, 1] = 9.0

    def test_grid_mismatch_rejected(self, grid64, grid32, rng):
        with pytest.raises(ValueError):
            random_psi(grid64, rng) + random_psi(grid32, rng)


class TestEnergySpectrum:
    def test_single_mode_shell(self, grid64):
        f = single_mode(grid64, 3, 4, 2.0)  # |k| = 5
        spec = tf.energy_spectrum(f)
        assert spec[5] == pytest.approx(tf.norm_hn(f, 1) ** 2, rel=1e-13)
        assert np.sum(spec) == pytest.approx(spec[5], rel=1e-13)

    def test_zero_field(self, grid64):
        assert not np.any(tf.energy_spectrum(zero_field(grid64)))

    def test_shells_regroup_parseval(self, grid64, rng):
        f = random_psi(grid64, rng)
        assert np.sum(tf.energy_spectrum(f)) == pytest.approx(
            tf.norm_hn(f, 1) ** 2, rel=1e-12
        )
