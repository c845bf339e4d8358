"""Streamfunction-level differential operators and the advection nonlinearity.

The solver state is a scalar streamfunction ``psi``; velocity
``u = (-d_y psi, d_x psi)`` and vorticity ``omega = lap(psi)`` are derived
views. The advection term is evaluated pseudo-spectrally: derivatives in
spectral space, products pointwise on the physical grid, then the square
2/3 mask. With dealiased inputs this equals the exactly truncated
convolution, so the truncated system conserves energy and enstrophy
exactly; the tests check both identities, and the convolution, on
``nonlinear_block`` itself.

The stepper evaluates the advection term on the dealiased block of the
half-plane (``nonlinear_block``; see ``spectral.to_block``), in
Basdevant's form of the advection term (Basdevant 1983; Canuto et al.,
*Spectral Methods*, 2006): for ``u = (u, v)`` divergence-free,

    u . grad(omega) = (d_x^2 - d_y^2)(u v) + d_x d_y (v^2 - u^2),

so a call makes two inverse transforms (``u``, ``v``) and two forward
ones (``2 u v``, ``u^2 - v^2``). Each transform runs as its two axis
passes, and the complex pass covers only the columns
``ky <= grid.dealias_kmax`` that the 2/3 mask keeps. ``u`` and ``v`` are
the real and imaginary parts of one complex array ``w``, so the products
are one complex square: ``w^2 = (u^2 - v^2) + i 2uv``.

``nonlinear_block`` takes one block or a stack of them (a coupled pair
is a stack of two), and each axis pass runs once over the stack: a pair
step makes eight FFT calls. Every transform and product writes into one
workspace (``nonlinear_workspace``, per block one complex ``N x N`` and
one complex ``N x (N/2+1)``) that a stepping call allocates once and
reuses for every evaluation, so a step allocates no ``N x N`` array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectral import (
    SpectralField,
    SpectralGrid,
    block_of,
    mirror_column,
)

__all__ = [
    "nonlinear_block",
    "nonlinear_workspace",
    "stream_force_term",
]


@lru_cache(maxsize=8)
def _block_operators(grid: SpectralGrid):
    """Derivative multipliers, output factors and row map of the block.

    On the block of ``to_block`` (rows ``kx = 0 .. K, -K .. -1``, columns
    ``ky = 0 .. K``, ``K = grid.dealias_kmax``), ``i*kx`` is a column and
    ``-i*ky`` a row (both broadcast to the block's shape).
    ``fa = (kx^2 - ky^2)/|k|^2`` and ``fb = kx*ky/|k|^2``, zero at
    ``k = 0``, map the transforms of ``u v`` and ``v^2 - u^2`` to the
    output; the factors kept are ``fa/2`` and ``-fb``, which map those of
    ``2 u v`` and ``u^2 - v^2``. ``rows`` pairs the block's ``kx >= 0``
    and ``kx < 0`` row ranges with the lattice rows they stand for.
    """
    n, kmax = grid.resolution, grid.dealias_kmax
    m = kmax + 1
    kx, ky, ksq = (block_of(a, kmax) for a in (grid.kx, grid.ky, grid.ksq))
    shape = (2 * kmax + 1, m)
    ikx = np.broadcast_to(1j * kx[:, :1], shape)
    neg_iky = np.broadcast_to(-1j * ky[:1], shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(ksq > 0, 1.0 / ksq, 0.0)
    half_fa = 0.5 * (kx * kx - ky * ky) * scale
    neg_fb = -(kx * ky) * scale
    for arr in (half_fa, neg_fb):
        arr.setflags(write=False)
    rows = ((slice(0, m), slice(0, m)), (slice(m, None), slice(n - kmax, None)))
    return m, ikx, neg_iky, half_fa, neg_fb, rows


def nonlinear_workspace(grid: SpectralGrid, count: int = 1) -> tuple[np.ndarray, ...]:
    """Scratch arrays of ``nonlinear_block`` for a stack of ``count``
    blocks: per block, one complex ``N x N`` (``u`` in its real part,
    ``v`` in its imaginary part) and one complex ``N x (N/2+1)`` (the
    spectra)."""
    n = grid.resolution
    return (np.empty((count, n, n), dtype=np.complex128),
            np.empty((count, n, n // 2 + 1), dtype=np.complex128))


def nonlinear_block(psi: np.ndarray, grid: SpectralGrid, work: tuple,
                    out: np.ndarray) -> np.ndarray:
    """Advection term invlap( u . grad(lap psi) ) of a block, or of a stack
    of blocks along a leading axis, written into ``out`` (of ``psi``'s
    shape, not ``psi``).

    Every transform and product runs once over the whole stack: two
    inverse and two forward transforms, with the complex pass on the
    block's columns only. ``u`` and ``v`` share one complex buffer, so
    one complex square gives ``u^2 - v^2`` and ``2 u v``. Every array
    they write is in ``work`` (``nonlinear_workspace`` of the stack's
    count; a single block takes a count of one), which holds nothing from
    one call to the next. The blocks do not interact: a stacked call
    equals one call per block. Each input must be Hermitian in its column
    ``ky = 0``; the output is mean-free and exactly Hermitian there.
    """
    m, ikx, neg_iky, half_fa, neg_fb, rows = _block_operators(grid)
    n = grid.resolution
    # a single block is a stack of one
    p, o = (a[np.newaxis] if a.ndim == 2 else a for a in (psi, out))
    w, spec = work
    u, v = w.real, w.imag
    # the first m columns hold the complex pass of every transform
    low = spec[:, :, :m]
    for mult, phys in ((neg_iky, u), (ikx, v)):
        # the rows |kx| > K are the zero padding of the inverse pass
        low[:, m:n - m + 1] = 0.0
        for b, lat in rows:
            np.multiply(p[:, b], mult[b], out=low[:, lat])
        np.fft.ifft(low, axis=1, norm="forward", out=low)
        # irfft zero-pads the columns ky > K
        np.fft.irfft(low, n=n, axis=2, norm="forward", out=phys)
    # (u + iv)^2 = (u^2 - v^2) + i 2uv: u now holds u^2 - v^2, v holds 2uv
    np.multiply(w, w, out=w)
    np.fft.rfft(v, axis=2, norm="forward", out=spec)
    np.fft.fft(low, axis=1, norm="forward", out=low)
    for b, lat in rows:
        np.multiply(low[:, lat], half_fa[b], out=o[:, b])
    np.fft.rfft(u, axis=2, norm="forward", out=spec)
    np.fft.fft(low, axis=1, norm="forward", out=low)
    for b, lat in rows:
        low[:, lat] *= neg_fb[b]
        o[:, b] += low[:, lat]
    # the forward pass leaves column ky = 0 Hermitian only to roundoff;
    # make it exact
    mirror_column(o[:, :, 0])
    return out


def stream_force_term(f: SpectralField) -> SpectralField:
    """Streamfunction-level forcing invlap(perp-div f) of the force field.

    A force field's coefficients are the amplitude profile of a
    divergence-free (curl) force whose Sobolev norms equal the field's
    (see the forcing module); the induced streamfunction source is then
    the profile divided by |k|.
    """
    kmag = f.grid.kmag
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(kmag > 0, 1.0 / kmag, 0.0)
    return SpectralField(f.grid, f.coeffs * inv)

