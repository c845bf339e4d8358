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

``nonlinear_block`` takes a stack of blocks (a coupled pair is a stack
of two, a single flow a stack of one), and each axis pass is one FFT
call for both components and the whole stack: a step, of a pair or of a
single flow, makes four FFT calls. Every transform and product writes
into one workspace (``nonlinear_workspace``: per block one complex
``N x N``, and per block and component one complex ``N x (N/2+1)``)
that a stepping call allocates once and reuses for every evaluation, so
a step allocates no ``N x N`` array. The workspace also carries the
derivative multipliers and output factors of the block's row ranges, so
``nonlinear_block`` reads nothing from the grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .spectral import SpectralField, SpectralGrid, mirror_column

__all__ = [
    "nonlinear_block",
    "nonlinear_workspace",
    "stream_force_term",
]


class _Workspace(NamedTuple):
    """Scratch and operators of ``nonlinear_block`` for a stack of ``s``
    blocks (see ``nonlinear_workspace``)."""

    w: np.ndarray  # complex (s, N, N): u + iv, then (u + iv)^2
    spec: np.ndarray  # complex (2, s, N, N/2+1): both components' spectra
    phys: np.ndarray  # (2, s, N, N) real view of w
    low: np.ndarray  # the columns ky <= K of spec: the complex pass
    pad_cols: np.ndarray  # the columns ky > K of spec
    pad_rows: np.ndarray  # the rows |kx| > K of low
    ranges: tuple  # per row range: block rows, lattice rows of low, mults, factors


def nonlinear_workspace(grid: SpectralGrid, count: int) -> _Workspace:
    """Scratch arrays and operators of ``nonlinear_block`` for a stack of
    ``count`` blocks on ``grid``: one complex ``(count, N, N)`` array
    ``w`` (``u`` in its real part, ``v`` in its imaginary part), one
    complex ``(2, count, N, N/2+1)`` array of both components' spectra,
    and views of them.

    The block's rows ``kx = 0 .. K`` stand for the lattice's first ``K+1``
    rows and its rows ``kx = -K .. -1`` for the last ``K``
    (``K = grid.dealias_kmax``). For each of the two row ranges,
    ``ranges`` holds its rows of the block and of ``low``, the multipliers
    ``-i*ky`` (of ``u``) and ``i*kx`` (of ``v``) as broadcast views, and
    the factors ``-fb`` and ``fa/2``, with ``fa = (kx^2 - ky^2)/|k|^2`` and
    ``fb = kx*ky/|k|^2`` zero at ``k = 0``: they map the transforms of
    ``u^2 - v^2`` and ``2 u v`` to the output.
    """
    n, kmax = grid.resolution, grid.dealias_kmax
    m = kmax + 1
    w = np.empty((count, n, n), dtype=np.complex128)
    spec = np.empty((2, count, n, n // 2 + 1), dtype=np.complex128)
    low = spec[..., :m]
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
    ranges = tuple((rows, low[:, :, lat], neg_iky[rows], ikx[rows], factors[:, :, rows])
                   for rows, lat in ((slice(0, m), slice(0, m)),
                                     (slice(m, None), slice(n - kmax, None))))
    return _Workspace(w, spec, w.view(np.float64).reshape(w.shape + (2,)).transpose(3, 0, 1, 2),
                      low, spec[..., m:], low[:, :, m:n - kmax], ranges)


def nonlinear_block(psi: np.ndarray, work: _Workspace, out: np.ndarray) -> np.ndarray:
    """Advection term invlap( u . grad(lap psi) ) of a stack of blocks
    along a leading axis, written into ``out`` (of ``psi``'s shape, not
    ``psi``).

    Two inverse and two forward transforms, each as two axis passes, and
    each pass is one FFT call for both components and every block of the
    stack: four FFT calls per call. The complex pass covers only the
    block's columns; the real pass reads and writes full rows, whose
    columns ``ky > K`` the inverse pass holds at zero. ``u`` and ``v``
    share one complex buffer, so one complex square gives ``u^2 - v^2``
    and ``2 u v``. Every array they write, and every operator they read,
    is in ``work`` (``nonlinear_workspace`` of the stack's grid and count),
    which holds nothing from one call to the next. The blocks do not
    interact: a stacked call equals one call per block. Each input must
    be Hermitian in its column ``ky = 0``; the output is mean-free and
    exactly Hermitian there.
    """
    w, spec, phys, low, pad_cols, pad_rows, ranges = work
    # zero padding of the inverse pass
    pad_cols.fill(0.0)
    pad_rows.fill(0.0)
    for rows, lat, mult_u, mult_v, _ in ranges:
        pb = psi[:, rows]
        np.multiply(pb, mult_u, out=lat[0])
        np.multiply(pb, mult_v, out=lat[1])
    np.fft.ifft(low, axis=2, norm="forward", out=low)
    np.fft.irfft(spec, n=phys.shape[3], axis=3, norm="forward", out=phys)
    # (u + iv)^2 = (u^2 - v^2) + i 2uv
    np.multiply(w, w, out=w)
    np.fft.rfft(phys, axis=3, norm="forward", out=spec)
    np.fft.fft(low, axis=2, norm="forward", out=low)
    for rows, lat, _, _, factor in ranges:
        lat *= factor
        np.add(lat[1], lat[0], out=out[:, rows])
    # the forward pass leaves column ky = 0 Hermitian only to roundoff;
    # make it exact
    mirror_column(out[:, :, 0])
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
