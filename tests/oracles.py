"""Independent reference implementations used by the tests.

* ``convolution_nonlinear_term`` and ``scalar_reference_pair_step`` work
  coefficient by coefficient with explicit loops and no FFTs, so they
  share no code path with the package's pseudo-spectral evaluation.
* ``five_transform_nonlinear_half``, ``full_lattice_error_record`` and
  ``full_lattice_norm`` keep earlier, more direct formulations of package
  functions (the five-transform advection term, the full-lattice error
  and Sobolev norms) as references for the half-plane ones.
* ``trilinear_b`` is a second, full-lattice advection path: the form
  ``<(u.grad)v, w>`` by complex ``ifft2`` derivatives and grid
  quadrature, for the Navier-Stokes identities on velocity triples.
  ``VelocityField`` holds such a velocity, ``velocity_from_stream`` and
  ``force_velocity`` build one, and ``velocity_laplacian`` and
  ``divergence`` are the spectral operators those checks use.
* ``physical_coords``, ``field_from_physical`` and ``hermitian_defect``
  build fields from physical samples and measure their symmetry.
* ``lattice_field`` takes an ``N x N`` coefficient lattice onto the block
  a field holds (``to_block``), and ``block_of`` takes any lattice table
  (masks, wavenumbers) onto the block as it is.
* ``odd_energy`` is the energy of the odd sublattice, ``kx + ky`` odd.
* ``checkpoint_bytes`` writes a version-2 checkpoint of a pair state from
  the byte layout in the README, one number at a time;
  ``block_checkpoint_bytes`` writes one from any two block-shaped arrays
  (NaN, a column ``ky = 0`` that is not Hermitian), and
  ``lattice_checkpoint_bytes`` a version-1 file from any two lattices
  (modes outside the block, NaN).
* ``step_single`` is one step of the package's own stepping loop under
  any force field, which the package's entry points never take: they
  step under the forces of their config.
* ``lattice_wavenumbers``, ``lattice_ksq``, ``lattice_kmag`` and
  ``dealias_mask`` build the wavenumbers, ``|k|^2``, ``|k|`` and the
  square 2/3 mask on the whole ``N x N`` lattice from a meshgrid; the
  grid keeps only block-sized tables.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

import twinflow as tf
from twinflow.fieldops import stream_force_term
from twinflow.spectral import to_block
from twinflow.stepping import _evolve


def lattice_field(grid, coeffs):
    """The field of an ``N x N`` coefficient lattice: its dealiased block,
    column ``ky = 0`` made exactly Hermitian; every mode outside is dropped."""
    return tf.SpectralField(grid, to_block(np.asarray(coeffs), grid.dealias_kmax))


def block_of(arr, kmax):
    """Any ``N x N`` lattice table on the block of ``to_block``, as it is."""
    n = arr.shape[0]
    return arr[np.r_[0:kmax + 1, n - kmax:n], : kmax + 1]


def odd_energy(psi):
    """Velocity energy of the modes with ``kx + ky`` odd, summed on the block
    with the grid's weights."""
    grid = psi.grid
    odd = (grid.block_kx + grid.block_ky) % 2 == 1
    c = psi.block[odd]
    return float(np.sum(grid.block_weights[odd] * (c.real * c.real + c.imag * c.imag)))


def lattice_wavenumbers(grid):
    """Meshgrid ``(kx, ky)`` of the ``N x N`` lattice's integer wavenumbers,
    'ij' indexed, in ``fft`` order."""
    n = grid.resolution
    k1d = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return np.meshgrid(k1d, k1d, indexing="ij")


def lattice_ksq(grid):
    """``|k|^2`` on the whole lattice, as floats."""
    kx, ky = lattice_wavenumbers(grid)
    return (kx * kx + ky * ky).astype(np.float64)


def lattice_kmag(grid):
    """``|k|`` on the whole lattice."""
    return np.sqrt(lattice_ksq(grid))


def dealias_mask(grid):
    """The square 2/3 mask on the whole lattice: ``3 |k_i| < N`` per axis."""
    kx, ky = lattice_wavenumbers(grid)
    n = grid.resolution
    return (3 * np.abs(kx) < n) & (3 * np.abs(ky) < n)


def step_single(psi, cfg, f):
    """One single-flow step of the stepper under the force field ``f`` (a
    zero or random field too), with ``cfg``'s grid, ``nu``, ``dt`` and
    blow-up limit."""
    (psi,), _, _ = _evolve(cfg, [psi], [f], 1)
    return psi


def convolution_nonlinear_term(psi):
    """Direct truncated-convolution evaluation of the advection term.

    For each retained output mode k, sums u_a . (i b) omega_b over all
    lattice pairs a + b = k inside the square dealias band, then applies
    the inverse laplacian. O(M^4); only usable at small resolutions.
    """
    grid = psi.grid
    n = grid.resolution
    kmax = grid.dealias_kmax
    c = psi.coeffs
    out = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 == 0:
                continue
            acc = 0.0 + 0.0j
            for a1 in range(-kmax, kmax + 1):
                for a2 in range(-kmax, kmax + 1):
                    b1, b2 = k1 - a1, k2 - a2
                    if abs(b1) > kmax or abs(b2) > kmax:
                        continue
                    # u_a = i a_perp psi_a, grad(omega)_b = i b (-|b|^2 psi_b)
                    a_perp_dot_b = (-a2) * b1 + a1 * b2
                    acc += (
                        -a_perp_dot_b
                        * (-(b1 * b1 + b2 * b2))
                        * c[a1 % n, a2 % n]
                        * c[b1 % n, b2 % n]
                    )
            out[k1 % n, k2 % n] = -acc / (k1 * k1 + k2 * k2)
    return out


def scalar_reference_pair_step(state, nu, dt, spec, g1, g2):
    """Hand-rolled per-mode reference for one coupled Euler step.

    Nonlinear terms come from the convolution oracle; the coupling and
    the integrating-factor update are evaluated mode by mode in plain
    Python complex arithmetic. Returns the two new coefficient arrays.
    """
    grid = state.psi1.grid
    n = grid.resolution
    kmax = grid.dealias_kmax
    n1 = convolution_nonlinear_term(state.psi1)
    n2 = convolution_nonlinear_term(state.psi2)
    out1 = np.zeros((n, n), dtype=np.complex128)
    out2 = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 == 0:
                continue
            i, j = k1 % n, k2 % n
            ksq = float(k1 * k1 + k2 * k2)
            inside = np.sqrt(ksq) <= spec.cutoff
            if spec.variant == "trivial":
                c1 = c2 = 0.0
            elif spec.variant == "mutual_sync":
                d = (n1[i, j] - n2[i, j]) if inside else 0.0
                c1, c2 = spec.theta1 * d, -(1.0 - spec.theta1) * d
            elif spec.variant == "degenerate_sync":
                c1 = n1[i, j] if inside else 0.0
                c2 = n2[i, j] if inside else 0.0
            elif spec.variant == "mutual_nudge":
                p1 = state.psi1.coeffs[i, j] if inside else 0.0
                p2 = state.psi2.coeffs[i, j] if inside else 0.0
                c1, c2 = spec.mu1 * (p2 - p1), spec.mu2 * (p1 - p2)
            elif spec.variant == "symmetric_nudge":
                p1 = state.psi1.coeffs[i, j] if inside else 0.0
                p2 = state.psi2.coeffs[i, j] if inside else 0.0
                c1 = spec.mu2 * p2 - spec.mu1 * p1
                c2 = spec.mu2 * p1 - spec.mu1 * p2
            elif spec.variant == "general_nudge":
                # rhs1 = m00 P_N psi2 - m01 P_N psi1, rhs2 = m10 P_N psi1 - m11 P_N psi2
                m00, m01, m10, m11 = spec.matrix
                p1 = state.psi1.coeffs[i, j] if inside else 0.0
                p2 = state.psi2.coeffs[i, j] if inside else 0.0
                c1 = m00 * p2 - m01 * p1
                c2 = m10 * p1 - m11 * p2
            elif spec.variant == "general_sync":
                # rhs1 = m00 P_N B1 - m01 P_N B2, rhs2 = m10 P_N B2 - m11 P_N B1
                m00, m01, m10, m11 = spec.matrix
                b1 = n1[i, j] if inside else 0.0
                b2 = n2[i, j] if inside else 0.0
                c1 = m00 * b1 - m01 * b2
                c2 = m10 * b2 - m11 * b1
            else:
                raise NotImplementedError(spec.variant)
            efac = np.exp(-nu * ksq * dt)
            out1[i, j] = efac * (
                state.psi1.coeffs[i, j] + dt * (-n1[i, j] + g1[i, j] + c1)
            )
            out2[i, j] = efac * (
                state.psi2.coeffs[i, j] + dt * (-n2[i, j] + g2[i, j] + c2)
            )
    return out1, out2


def five_transform_nonlinear_half(psi, grid):
    """Advection term of a half-plane array in the direct form
    ``u . grad(omega)``: four full ``irfft2`` (u, v, d_x omega, d_y omega)
    and one full ``rfft2``, then the 2/3 mask and the inverse laplacian."""
    n = grid.resolution
    kx, ky = (k[:, : n // 2 + 1] for k in lattice_wavenumbers(grid))
    ksq = lattice_ksq(grid)[:, : n // 2 + 1]
    mask = dealias_mask(grid)[:, : n // 2 + 1]
    u = np.fft.irfft2(-1j * ky * psi, norm="forward")
    v = np.fft.irfft2(1j * kx * psi, norm="forward")
    omega = -ksq * psi
    wx = np.fft.irfft2(1j * kx * omega, norm="forward")
    wy = np.fft.irfft2(1j * ky * omega, norm="forward")
    adv = np.fft.rfft2(u * wx + v * wy, norm="forward")
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(ksq > 0, mask / -ksq, 0.0)
    return adv * factor


def full_lattice_error_record(state, cutoff):
    """Error norms of a pair summed over the whole ``N x N`` lattice:
    ``(err_h, err_v, err_low, err_high, energy1, energy2)``."""
    grid = state.grid
    ksq = lattice_ksq(grid)
    wdiff = ksq * np.abs(state.psi1.coeffs - state.psi2.coeffs) ** 2
    low_mask = lattice_kmag(grid) <= cutoff
    total = float(np.sum(wdiff))
    low = float(np.sum(wdiff * low_mask))
    two_pi = 2.0 * np.pi
    return (
        two_pi * math.sqrt(total),
        two_pi * math.sqrt(float(np.sum(ksq * wdiff))),
        two_pi * math.sqrt(low),
        two_pi * math.sqrt(max(total - low, 0.0)),
        two_pi**2 * float(np.sum(ksq * np.abs(state.psi1.coeffs) ** 2)),
        two_pi**2 * float(np.sum(ksq * np.abs(state.psi2.coeffs) ** 2)),
    )


def full_lattice_norm(field, n):
    """``2*pi * sqrt(sum |k|^(2n) |c_k|^2)`` summed over the whole ``N x N``
    lattice, with the mean mode weighing 1 at ``n = 0`` and 0 otherwise."""
    c = field.coeffs
    if n == 0:
        total = np.sum(np.abs(c) ** 2)
    else:
        ksq = lattice_ksq(field.grid)
        with np.errstate(divide="ignore"):
            weights = np.where(ksq > 0, ksq**n, 0.0)
        total = np.sum(weights * np.abs(c) ** 2)
    return 2.0 * np.pi * float(np.sqrt(total))


def checkpoint_bytes(state, dt):
    """The version-2 checkpoint file of a pair state (see
    ``block_checkpoint_bytes``)."""
    return block_checkpoint_bytes(state.grid.resolution, dt, state.t, state.step_index,
                                  [state.psi1.block, state.psi2.block])


def block_checkpoint_bytes(n, dt, t, step, blocks):
    """A version-2 checkpoint file built from the README's layout: both
    ``(2K+1) x (K+1)`` blocks of an ``n x n`` grid in row-major order."""
    return _checkpoint_file(2, n, dt, t, step, blocks)


def lattice_checkpoint_bytes(n, dt, t, step, lattices):
    """A version-1 checkpoint file built from the README's layout: both
    ``n x n`` lattices in row-major order."""
    return _checkpoint_file(1, n, dt, t, step, lattices)


def _checkpoint_file(version, n, dt, t, step, arrays):
    """Magic, version, resolution, dt, t, step, the arrays as (re, im) f64
    pairs in row-major order, then the CRC32 of everything before it."""
    blob = b"INTWNSE1" + struct.pack("<IIddQ", version, n, dt, t, step)
    for array in arrays:
        for row in array:
            for c in row:
                blob += struct.pack("<dd", c.real, c.imag)
    return blob + struct.pack("<I", zlib.crc32(blob))


def physical_coords(grid):
    """Meshgrid ``(x, y)`` of the physical sample points of the box
    ``[-pi, pi)^2``, 'ij' indexed."""
    n = grid.resolution
    x1d = 2.0 * np.pi * np.arange(n) / n - np.pi
    return np.meshgrid(x1d, x1d, indexing="ij")


def field_from_physical(grid, values):
    """Transform real physical samples to a mean-free spectral field (the
    modes of its block)."""
    c = np.fft.fft2(np.asarray(values, dtype=np.float64), norm="forward")
    c[0, 0] = 0.0
    return lattice_field(grid, c)


def hermitian_defect(field):
    """Max |c_k - conj(c_{-k})| over the lattice."""
    c = field.coeffs
    mirror = (-np.arange(c.shape[0])) % c.shape[0]
    return float(np.max(np.abs(c - np.conj(c[np.ix_(mirror, mirror)]))))


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Two spectral components of a divergence-free velocity."""

    ux: tf.SpectralField
    uy: tf.SpectralField

    @property
    def grid(self):
        return self.ux.grid


def velocity_from_stream(psi):
    """u = perp-gradient of psi: ux_k = -i k2 psi_k, uy_k = i k1 psi_k."""
    grid = psi.grid
    kx, ky = lattice_wavenumbers(grid)
    ux = lattice_field(grid, -1j * ky * psi.coeffs)
    uy = lattice_field(grid, 1j * kx * psi.coeffs)
    return VelocityField(ux, uy)


def force_velocity(f):
    """Velocity-space components of the force a field represents."""
    return velocity_from_stream(stream_force_term(f))


def velocity_laplacian(u):
    """Componentwise Stokes-operator action: coefficients times |k|^2."""
    ksq = lattice_ksq(u.grid)
    return VelocityField(
        lattice_field(u.grid, u.ux.coeffs * ksq),
        lattice_field(u.grid, u.uy.coeffs * ksq),
    )


def divergence(u):
    """Spectral divergence i k . u_k."""
    kx, ky = lattice_wavenumbers(u.grid)
    return lattice_field(u.grid, 1j * (kx * u.ux.coeffs + ky * u.uy.coeffs))


def _deriv_phys(field, axis):
    k = lattice_wavenumbers(field.grid)[axis]
    return np.fft.ifft2(1j * k * field.coeffs, norm="forward").real


def _advect(u, v):
    """(u . grad) v on the physical grid."""
    ux, uy = tf.to_physical(u.ux), tf.to_physical(u.uy)
    ax = ux * _deriv_phys(v.ux, 0) + uy * _deriv_phys(v.ux, 1)
    ay = ux * _deriv_phys(v.uy, 0) + uy * _deriv_phys(v.uy, 1)
    return ax, ay


def trilinear_b(u, v, w):
    """Advection form <(u.grad)v, w> = integral ((u.grad)v).w dx.

    For dealiased inputs the grid quadrature of the triple product is
    exact, so the skew-symmetry and enstrophy identities hold to roundoff.
    """
    ax, ay = _advect(u, v)
    wx, wy = tf.to_physical(w.ux), tf.to_physical(w.uy)
    total = np.sum(ax * wx + ay * wy)
    n = u.grid.resolution
    return (2.0 * np.pi) ** 2 * float(total) / (n * n)
