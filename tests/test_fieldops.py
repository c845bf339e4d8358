import numpy as np
import pytest

import twinflow as tf
from twinflow.fieldops import nonlinear_block, nonlinear_workspace, stream_force_term
from twinflow.spectral import from_block, half_plane, to_block, zero_field

from conftest import nonlinear_full, random_psi, velocity_norm
from oracles import (
    VelocityField,
    convolution_nonlinear_term,
    divergence,
    field_from_physical,
    five_transform_nonlinear_half,
    force_velocity,
    physical_coords,
    trilinear_b,
    velocity_from_stream,
    velocity_laplacian,
)


class TestVelocityFromStream:
    def test_shear_mode(self, grid64):
        x, y = physical_coords(grid64)
        psi = field_from_physical(grid64, np.cos(y))
        u = velocity_from_stream(psi)
        assert np.max(np.abs(tf.to_physical(u.ux) - np.sin(y))) <= 1e-12
        assert np.max(np.abs(tf.to_physical(u.uy))) <= 1e-13

    def test_zero(self, grid64):
        u = velocity_from_stream(zero_field(grid64))
        assert not np.any(u.ux.coeffs) and not np.any(u.uy.coeffs)

    def test_divergence_exactly_zero_on_unit_modes(self, grid64):
        c = np.zeros(grid64.shape, dtype=np.complex128)
        for k1, k2 in ((3, 5), (-7, 2), (11, -11)):
            c[k1 % 64, k2 % 64] = 1.0
            c[(-k1) % 64, (-k2) % 64] = 1.0
        u = velocity_from_stream(tf.SpectralField(grid64, c))
        assert np.max(np.abs(divergence(u).coeffs)) == 0.0

    def test_divergence_free_within_roundoff(self, grid64, rng):
        psi = random_psi(grid64, rng)
        u = velocity_from_stream(psi)
        div = divergence(u)
        assert np.max(np.abs(div.coeffs)) <= 1e-13 * tf.norm_hn(psi, 1)


class TestDivergence:
    def test_sin_x_velocity(self, grid64):
        x, y = physical_coords(grid64)
        u = VelocityField(
            field_from_physical(grid64, np.sin(x)), zero_field(grid64)
        )
        div = divergence(u)
        assert np.max(np.abs(tf.to_physical(div) - np.cos(x))) <= 1e-12

    def test_zero(self, grid64):
        u = VelocityField(zero_field(grid64), zero_field(grid64))
        assert not np.any(divergence(u).coeffs)


class TestNonlinearTerm:
    def test_parallel_shear_vanishes(self, grid64):
        _, y = physical_coords(grid64)
        psi = field_from_physical(grid64, np.cos(y))
        assert np.max(np.abs(nonlinear_full(psi))) == 0.0

    def test_mean_mode_always_zero(self, grid64, rng):
        out = nonlinear_full(random_psi(grid64, rng))
        assert out[0, 0] == 0.0

    @pytest.mark.parametrize("alpha", [2.0, -1.0, 0.5])
    def test_quadratic_scaling(self, grid64, rng, alpha):
        psi = random_psi(grid64, rng)
        base = nonlinear_full(psi)
        scaled = nonlinear_full(alpha * psi)
        diff = np.max(np.abs(scaled - alpha**2 * base))
        assert diff <= 1e-12 * np.max(np.abs(base)) * alpha**2

    def test_equal_wavenumber_vortex_is_steady(self):
        # cos x + cos y advects its own vorticity not at all; both the
        # pseudo-spectral path and the convolution oracle agree on zero
        grid = tf.SpectralGrid(16)
        x, y = physical_coords(grid)
        psi = field_from_physical(grid, np.cos(x) + np.cos(y))
        assert np.max(np.abs(nonlinear_full(psi))) <= 1e-15
        assert np.max(np.abs(convolution_nonlinear_term(psi))) <= 1e-15

    def test_two_cosines_against_convolution(self):
        grid = tf.SpectralGrid(16)
        x, y = physical_coords(grid)
        psi = field_from_physical(grid, np.cos(x) + np.cos(2 * y))
        fast = nonlinear_full(psi)
        slow = convolution_nonlinear_term(psi)
        assert np.max(np.abs(fast)) > 0.01
        assert np.max(np.abs(fast - slow)) <= 1e-10 * np.max(np.abs(slow))

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_random_fields_against_convolution(self, rng, n):
        # n mod 3 = 1, 0, 2: the kept band |k_i| < n/3 ends at each boundary
        grid = tf.SpectralGrid(n)
        for _ in range(3):
            psi = random_psi(grid, rng, decay=1.5)
            fast = nonlinear_full(psi)
            slow = convolution_nonlinear_term(psi)
            assert np.max(np.abs(fast - slow)) <= 1e-10 * np.max(np.abs(slow))

    def test_output_dealiased(self, grid64, rng):
        out = nonlinear_full(random_psi(grid64, rng, decay=1.0))
        assert not np.any(out[~grid64.dealias_mask])

    def test_half_plane_against_five_transform_form(self, grid64, rng):
        # the block term, expanded to the half-plane, against the direct
        # form on the whole half-plane: equal on the block, zero elsewhere
        work = nonlinear_workspace(grid64)
        for decay in (3.0, 1.5):
            psi = random_psi(grid64, rng, decay=decay).coeffs
            block = to_block(psi, grid64.dealias_kmax)
            fast = nonlinear_block(block, grid64, work, np.empty_like(block))
            slow = five_transform_nonlinear_half(half_plane(psi), grid64)
            diff = half_plane(from_block(fast, 64)) - slow
            assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(slow))
            col = fast[:, 0]
            assert np.array_equal(col[1:], np.conj(col[:0:-1]))


class TestBlockWorkspace:
    def test_reused_workspace_holds_no_state(self, grid64, rng):
        # A, then B, then A again through one workspace that starts out
        # full of NaN: the third result is bitwise the first, and bitwise
        # a fresh workspace's
        a, b = (to_block(random_psi(grid64, rng, decay=d).coeffs, grid64.dealias_kmax)
                for d in (3.0, 1.0))
        work = nonlinear_workspace(grid64)
        for arr in work:
            arr.fill(np.nan)
        first = nonlinear_block(a, grid64, work, np.full_like(a, np.nan))
        nonlinear_block(b, grid64, work, np.empty_like(b))
        third = nonlinear_block(a, grid64, work, np.empty_like(a))
        fresh = nonlinear_block(a, grid64, nonlinear_workspace(grid64), np.empty_like(a))
        assert np.all(np.isfinite(first))
        assert np.array_equal(third, first)
        assert np.array_equal(fresh, first)


class TestStackedBlocks:
    """A stack of blocks goes through ``nonlinear_block`` in one call."""

    @staticmethod
    def blocks(grid, rng, count):
        return [to_block(random_psi(grid, rng, decay=d).coeffs, grid.dealias_kmax)
                for d in rng.uniform(1.0, 3.0, count)]

    @pytest.mark.parametrize("n", [64, 96])  # 3 | 96: the block ends below N/3
    def test_pair_equals_two_single_calls(self, rng, n):
        # the systems do not interact through the batch: bitwise
        grid = tf.SpectralGrid(n)
        single, pair = nonlinear_workspace(grid), nonlinear_workspace(grid, 2)
        for _ in range(30):
            stack = np.stack(self.blocks(grid, rng, 2))
            stacked = nonlinear_block(stack, grid, pair, np.empty_like(stack))
            for got, block in zip(stacked, stack):
                alone = nonlinear_block(block, grid, single, np.empty_like(block))
                assert np.array_equal(got, alone)

    def test_reused_pair_workspace_holds_no_state(self, grid64, rng):
        first, second = (np.stack(self.blocks(grid64, rng, 2)) for _ in range(2))
        work = nonlinear_workspace(grid64, 2)
        for arr in work:
            arr.fill(np.nan)
        reused = nonlinear_block(first, grid64, work, np.full_like(first, np.nan))
        nonlinear_block(second, grid64, work, np.empty_like(second))
        again = nonlinear_block(first, grid64, work, np.empty_like(first))
        fresh = nonlinear_block(first, grid64, nonlinear_workspace(grid64, 2),
                                np.empty_like(first))
        assert np.all(np.isfinite(reused))
        assert reused.tobytes() == again.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("slot", [0, 1])
    def test_parallel_shear_vanishes_in_either_slot(self, grid64, rng, slot):
        _, y = physical_coords(grid64)
        shear = to_block(field_from_physical(grid64, np.cos(y)).coeffs,
                         grid64.dealias_kmax)
        stack = np.stack(self.blocks(grid64, rng, 2))
        stack[slot] = shear
        out = nonlinear_block(stack, grid64, nonlinear_workspace(grid64, 2),
                              np.empty_like(stack))
        assert np.max(np.abs(out[slot])) == 0.0
        assert np.max(np.abs(out[1 - slot])) > 0.0


class TestTrilinear:
    def test_skew_symmetry(self, grid64, rng):
        for _ in range(5):
            u = velocity_from_stream(random_psi(grid64, rng))
            v = velocity_from_stream(random_psi(grid64, rng))
            w = velocity_from_stream(random_psi(grid64, rng))
            scale = velocity_norm(u, 1) * velocity_norm(v, 1) * velocity_norm(w, 1)
            assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * scale

    def test_second_slot_annihilation(self, grid64, rng):
        u = velocity_from_stream(random_psi(grid64, rng))
        v = velocity_from_stream(random_psi(grid64, rng))
        scale = velocity_norm(u, 1) * velocity_norm(v, 1) ** 2
        assert abs(trilinear_b(u, v, v)) <= 1e-10 * scale

    def test_enstrophy_identity(self, grid64, rng):
        psi = random_psi(grid64, rng)
        u = velocity_from_stream(psi)
        au = velocity_laplacian(u)
        scale = velocity_norm(u, 1) * velocity_norm(au, 0) * velocity_norm(u, 0)
        assert abs(trilinear_b(u, u, au)) <= 1e-10 * scale


class TestForceRepresentation:
    def test_stream_force_term_divides_by_kmag(self, grid64, rng):
        f = random_psi(grid64, rng)
        g = stream_force_term(f)
        nz = grid64.kmag > 0
        assert np.allclose(g.coeffs[nz] * grid64.kmag[nz], f.coeffs[nz], rtol=1e-13)

    def test_force_velocity_norm_matches_profile(self, grid64, rng):
        f = random_psi(grid64, rng)
        vel = force_velocity(f)
        assert velocity_norm(vel, 0) == pytest.approx(tf.norm_hn(f, 0), rel=1e-12)
