"""Streamfunction-level differential operators and the advection nonlinearity.

The solver state is a scalar streamfunction ``psi``; velocity
``u = (-d_y psi, d_x psi)`` and vorticity ``omega = lap(psi)`` are derived
views. The advection term is evaluated pseudo-spectrally: derivatives in
spectral space, products pointwise on the physical grid, then the square
2/3 mask. With dealiased inputs this equals the exactly truncated
convolution, so the truncated system conserves energy and enstrophy
exactly; the tests check both identities, and the convolution, on
``nonlinear_block`` itself.

The stepper evaluates the advection term on the dealiased block every
field holds (``nonlinear_block``; see ``spectral``), in
Basdevant's form of the advection term (Basdevant 1983; Canuto et al.,
*Spectral Methods*, 2006): for ``u = (u, v)`` divergence-free,

    u . grad(omega) = (d_x^2 - d_y^2)(u v) + d_x d_y (v^2 - u^2),

so a call makes two inverse transforms (``u``, ``v``) and two forward
ones (``2 u v``, ``u^2 - v^2``). Each transform runs as its two axis
passes, and the complex pass covers only the columns
``ky <= grid.dealias_kmax`` that the 2/3 mask keeps; the real pass reads
and writes full rows. ``u`` and ``v`` are the real and imaginary parts of
one complex array ``w``, so the products are one complex square:
``w^2 = (u^2 - v^2) + i 2uv``.

``nonlinear_block`` takes one block or a stack of them (a coupled pair
is a stack of two), and each axis pass is one FFT call for both
components and the whole stack: a step, of a pair or of a single flow,
makes four FFT calls. Every transform and product writes into one
workspace (``nonlinear_workspace``: per block one complex ``N x N``, and
per block and component one complex ``N x (N/2+1)``) that a stepping
call allocates once and reuses for every evaluation, so a step allocates
no ``N x N`` array.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import SpectralField, SpectralGrid, mirror_column

__all__ = [
    "nonlinear_block",
    "nonlinear_workspace",
    "stream_force_term",
]


@lru_cache(maxsize=8)
def _block_operators(grid: SpectralGrid):
    """Derivative multipliers and output factors of the block, per row
    range.

    The block's rows ``kx = 0 .. K`` stand for the lattice's first
    ``K+1`` rows and its rows ``kx = -K .. -1`` for the last ``K``
    (``K = grid.dealias_kmax``); its columns are ``ky = 0 .. K``. For
    each of the two row ranges, ``mults`` holds ``-i*ky`` (of ``u``) and
    ``i*kx`` (of ``v``), both broadcast to the range's shape, and
    ``factors`` stacks ``-fb`` and ``fa/2``, with ``fa = (kx^2 -
    ky^2)/|k|^2`` and ``fb = kx*ky/|k|^2`` zero at ``k = 0``: they map the
    transforms of ``u^2 - v^2`` and ``2 u v`` to the output.
    """
    kmax = grid.dealias_kmax
    m = kmax + 1
    kx, ky, ksq = grid.block_kx, grid.block_ky, grid.block_ksq
    shape = (2 * kmax + 1, m)
    neg_iky = np.broadcast_to(-1j * ky[:1], shape)
    ikx = np.broadcast_to(1j * kx[:, :1], shape)
    factors = np.empty((2, 1) + shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(ksq > 0, 1.0 / ksq, 0.0)
    np.multiply(-(kx * ky), scale, out=factors[0, 0])
    np.multiply(0.5 * (kx * kx - ky * ky), scale, out=factors[1, 0])
    factors.setflags(write=False)
    ranges = (slice(0, m), slice(m, None))
    return (m, tuple((neg_iky[b], ikx[b]) for b in ranges),
            tuple(factors[:, :, b] for b in ranges))


class _Workspace(NamedTuple):
    """Scratch of ``nonlinear_block`` for a stack of ``s`` blocks: two
    arrays, and the views of them that every call reads."""

    w: np.ndarray  # complex (s, N, N): u + iv, then (u + iv)^2
    spec: np.ndarray  # complex (2, s, N, N/2+1): both components' spectra
    phys: np.ndarray  # (2, s, N, N) real view of w
    low: np.ndarray  # the columns ky <= K of spec: the complex pass
    pad_cols: np.ndarray  # the columns ky > K of spec
    pad_rows: np.ndarray  # the rows |kx| > K of low
    head: np.ndarray  # the lattice rows kx = 0 .. K of low
    tail: np.ndarray  # the lattice rows kx = -K .. -1 of low


def nonlinear_workspace(grid: SpectralGrid, count: int = 1) -> _Workspace:
    """Scratch arrays of ``nonlinear_block`` for a stack of ``count``
    blocks: one complex ``(count, N, N)`` array ``w`` (``u`` in its real
    part, ``v`` in its imaginary part) and one complex
    ``(2, count, N, N/2+1)`` array, the spectra of both components, with
    views of them."""
    n, kmax = grid.resolution, grid.dealias_kmax
    m = kmax + 1
    w = np.empty((count, n, n), dtype=np.complex128)
    spec = np.empty((2, count, n, n // 2 + 1), dtype=np.complex128)
    low = spec[..., :m]
    return _Workspace(w, spec, w.view(np.float64).reshape(w.shape + (2,)).transpose(3, 0, 1, 2),
                      low, spec[..., m:], low[:, :, m:n - kmax], low[:, :, :m],
                      low[:, :, n - kmax:])


def nonlinear_block(psi: np.ndarray, grid: SpectralGrid, work: _Workspace,
                    out: np.ndarray) -> np.ndarray:
    """Advection term invlap( u . grad(lap psi) ) of a block, or of a stack
    of blocks along a leading axis, written into ``out`` (of ``psi``'s
    shape, not ``psi``).

    Two inverse and two forward transforms, each as two axis passes, and
    each pass is one FFT call for both components and every block of the
    stack: four FFT calls per call. The complex pass covers only the
    block's columns; the real pass reads and writes full rows, whose
    columns ``ky > K`` the inverse pass holds at zero. ``u`` and ``v``
    share one complex buffer, so one complex square gives ``u^2 - v^2``
    and ``2 u v``. Every array they write is in ``work``
    (``nonlinear_workspace`` of the stack's count; a single block takes
    a count of one), which holds nothing from one call to the next. The
    blocks do not interact: a stacked call equals one call per block.
    Each input must be Hermitian in its column ``ky = 0``; the output is
    mean-free and exactly Hermitian there.
    """
    m, mults, factors = _block_operators(grid)
    # a single block is a stack of one
    p, o = (psi, out) if psi.ndim == 3 else (psi[np.newaxis], out[np.newaxis])
    w, spec, phys, low, pad_cols, pad_rows, head, tail = work
    # the block's two row ranges: the input, their lattice rows, the output
    ranges = ((p[:, :m], head, o[:, :m]), (p[:, m:], tail, o[:, m:]))
    # zero padding of the inverse pass
    pad_cols.fill(0.0)
    pad_rows.fill(0.0)
    for (pb, lat, _), (mult_u, mult_v) in zip(ranges, mults):
        np.multiply(pb, mult_u, out=lat[0])
        np.multiply(pb, mult_v, out=lat[1])
    np.fft.ifft(low, axis=2, norm="forward", out=low)
    np.fft.irfft(spec, n=grid.resolution, axis=3, norm="forward", out=phys)
    # (u + iv)^2 = (u^2 - v^2) + i 2uv
    np.multiply(w, w, out=w)
    np.fft.rfft(phys, axis=3, norm="forward", out=spec)
    np.fft.fft(low, axis=2, norm="forward", out=low)
    for (_, lat, ob), factor in zip(ranges, factors):
        lat *= factor
        np.add(lat[1], lat[0], out=ob)
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
    kmag = np.sqrt(f.grid.block_ksq)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(kmag > 0, 1.0 / kmag, 0.0)
    return SpectralField(f.grid, f.block * inv)
