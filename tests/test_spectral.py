import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

import twinflow as tf
from twinflow.spectral import (
    SpectralField,
    low_block,
    sobolev_weights,
    to_block,
    zero_field,
)

from conftest import hermitian_part, random_psi, sub
from oracles import (
    block_of,
    dealias_mask,
    field_from_physical,
    full_lattice_norm,
    hermitian_defect,
    lattice_field,
    lattice_kmag,
    lattice_ksq,
    lattice_wavenumbers,
)

GRID_SIZES = [32, 48, 96, 512]


def single_mode(grid, k1, k2, amplitude=1.0):
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[k1 % grid.resolution, k2 % grid.resolution] = amplitude
    c[(-k1) % grid.resolution, (-k2) % grid.resolution] = np.conj(amplitude)
    return lattice_field(grid, c)


class TestGrid:
    def test_dealias_cutoff_is_two_thirds_nyquist(self):
        assert tf.SpectralGrid(512).dealias_cutoff == 512 / 3
        assert tf.SpectralGrid(128).dealias_cutoff == 128 / 3

    @pytest.mark.parametrize("bad", [0, 2, 7, 33])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ValueError):
            tf.SpectralGrid(bad)

    def test_wavenumber_lattice_is_bijective(self, grid64):
        # the block's modes and their mirrors cover the dealiased lattice,
        # each mode once but for column ky = 0, which is its own mirror
        pairs = list(zip(grid64.block_kx.ravel().tolist(), grid64.block_ky.ravel().tolist()))
        assert len(set(pairs)) == len(pairs) == 43 * 22
        mirrored = set(pairs) | {(-k1, -k2) for k1, k2 in pairs}
        assert mirrored == {(k1, k2) for k1 in range(-21, 22) for k2 in range(-21, 22)}

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_grid_holds_no_lattice(self, n):
        # the memory an array attribute spans, not its shape
        grid = tf.SpectralGrid(n)
        arrays = {name: a for name, a in vars(grid).items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {"block_kx", "block_ky", "block_ksq", "block_weights"}
        rows, cols = grid.block_shape
        for name, arr in arrays.items():
            low, high = byte_bounds(arr)
            assert (high - low) // arr.itemsize == rows * cols, name

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_block_tables_are_blocks_of_lattice_tables(self, n):
        grid = tf.SpectralGrid(n)
        kmax = grid.dealias_kmax
        kx, ky = lattice_wavenumbers(grid)
        for table, full in ((grid.block_kx, kx), (grid.block_ky, ky),
                            (grid.block_ksq, lattice_ksq(grid))):
            expected = block_of(full, kmax)
            assert not table.flags.writeable
            assert table.shape == (2 * kmax + 1, kmax + 1)
            assert table.dtype == expected.dtype
            assert table.tobytes() == expected.tobytes()
        assert grid.block_weights.tobytes() == sobolev_weights(grid, 1).tobytes()
        assert not grid.block_weights.flags.writeable

    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("order", [-1, 0, 1, 2])
    def test_half_plane_weights_from_lattice_ksq(self, n, order):
        # the half-plane's column weights on the block: the columns ky = 0
        # and ky = N/2 hold each mode once, every other column counts twice
        grid = tf.SpectralGrid(n)
        ksq = lattice_ksq(grid)[:, : n // 2 + 1]
        with np.errstate(divide="ignore"):
            power = np.where(ksq > 0, ksq**order, float(order == 0))
        expected = 2.0 * power
        expected[:, 0], expected[:, -1] = power[:, 0], power[:, -1]
        weights = sobolev_weights(grid, order)
        assert not weights.flags.writeable
        assert weights.tobytes() == block_of(expected, grid.dealias_kmax).tobytes()


class TestDealias:
    def test_mode_just_above_cutoff_zeroed_at_512(self):
        # cutoff = 170.66..: 171 goes, 170 stays
        grid = tf.SpectralGrid(512)
        f = single_mode(grid, 171, 0) + single_mode(grid, 170, 0)
        d = f.coeffs * dealias_mask(grid)
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
        assert not np.any(sub(low, tf.project_low(low, 50.0)).coeffs)
        assert np.array_equal(sub(high, tf.project_low(high, 20.0)).coeffs, high.coeffs)

    def test_partition_idempotence_orthogonality(self, grid64, rng):
        x = random_psi(grid64, rng)
        y = random_psi(grid64, rng)
        for cutoff in (1.0, 7.5, 20.0, 50.0):
            p = tf.project_low(x, cutoff)
            q = sub(x, p)
            assert np.array_equal(p.coeffs + q.coeffs, x.coeffs)
            assert np.array_equal(tf.project_low(p, cutoff).coeffs, p.coeffs)
            assert not np.any(tf.project_low(q, cutoff).coeffs)
            y_high = sub(y, tf.project_low(y, cutoff))
            assert np.vdot(p.coeffs, y_high.coeffs) == 0.0

    def test_cutoff_beyond_grid_is_identity_on_dealiased(self, grid64, rng):
        x = random_psi(grid64, rng)
        assert np.array_equal(tf.project_low(x, 50.0).coeffs, x.coeffs)

    def test_rejects_nonpositive_cutoff(self, grid64, rng):
        # NaN fails every comparison, so it must fail the check as well
        psi = random_psi(grid64, rng)
        for cutoff in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="cutoff must be positive"):
                tf.project_low(psi, cutoff)

    def test_low_block_shared_and_read_only(self):
        # at 48^2 the ball |k| <= N/3 reaches past the block
        for n, cutoff in ((64, 7.5), (48, 16.0)):
            grid = tf.SpectralGrid(n)
            mask = low_block(grid, cutoff)
            assert low_block(tf.SpectralGrid(n), cutoff) is mask
            expected = block_of(lattice_kmag(grid) <= cutoff, grid.dealias_kmax)
            assert np.array_equal(mask, expected)
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
        bad = lattice_field(grid64, c)
        with pytest.raises(ValueError):
            tf.norm_hn(bad, -1)

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_half_plane_sum_matches_full_lattice(self, n):
        # every mode of the block is nonzero, the self-mirrored column
        # ky = 0 and the last column ky = K included, so both column
        # weights are exercised
        grid = tf.SpectralGrid(n)
        rng = np.random.default_rng(n)
        c = hermitian_part(rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape))
        c[0, 0] = 0.0
        f = lattice_field(grid, c * dealias_mask(grid))
        assert np.count_nonzero(f.block) == f.block.size - 1
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
            f.block[1, 1] = 9.0
        with pytest.raises(ValueError):
            f.coeffs[1, 1] = 9.0

    def test_field_holds_the_block_and_rejects_a_lattice(self, grid64, rng):
        f = random_psi(grid64, rng)
        assert f.block.shape == grid64.block_shape == (43, 22)
        assert np.array_equal(to_block(f.coeffs, grid64.dealias_kmax), f.block)
        with pytest.raises(ValueError, match="to_block"):
            SpectralField(grid64, np.array(f.coeffs))
        with pytest.raises(ValueError, match="to_block"):
            SpectralField(grid64, np.zeros((43, 21), dtype=np.complex128))

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

    @pytest.mark.parametrize("n, shells", [(16, 12), (18, 13), (48, 34), (96, 68)])
    def test_shells_reach_the_lattice_corner(self, rng, n, shells):
        # floor(sqrt(2) N/2) + 1 shells, whatever the block holds: those
        # past the block are zero
        grid = tf.SpectralGrid(n)
        spec = tf.energy_spectrum(random_psi(grid, rng))
        assert len(spec) == shells == int(np.floor(np.sqrt(2) * n / 2)) + 1
        assert not np.any(spec[int(np.sqrt(2) * grid.dealias_kmax) + 1:])

    def test_shells_regroup_parseval(self, grid64, rng):
        f = random_psi(grid64, rng)
        assert np.sum(tf.energy_spectrum(f)) == pytest.approx(
            tf.norm_hn(f, 1) ** 2, rel=1e-12
        )
