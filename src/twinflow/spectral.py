"""Periodic Fourier representation of scalar fields on the square box.

Conventions, fixed once for the whole package:

* Physical domain is the periodic box ``[-pi, pi]^2`` sampled on an
  ``N x N`` grid (``N`` even), so wavenumbers are the integer lattice
  with ``|k_i| <= N/2``.
* The forward transform carries the ``1/N^2`` factor: coefficients are
  mode amplitudes, ``u(x) = sum_k c_k exp(i k.x)``.
* With that choice the L2 norm of a field is
  ``|u| = 2*pi * sqrt(sum_k |c_k|^2)`` (``PARSEVAL_FACTOR`` below); the
  constant is pinned by the physical-quadrature oracle in the tests.
* Fields are real-valued in physical space (Hermitian coefficient
  symmetry), mean-free (``c_0 = 0``), and dealiased with the square 2/3
  mask ``3 |k_i| < N``, which is ``|k_i| <= N/3`` unless 3 divides ``N``
  (then ``|k_i| = N/3`` would alias onto itself in a quadratic product).
  Spectral ball projections use the circular mask ``|k| <= cutoff``
  (inclusive): ``low_block``, the coupling's P_N, shared per grid and
  cutoff, which ``project_low`` applies to a field.

A ``SpectralField`` holds the dealiased block, read-only: the
``(2K+1) x (K+1)`` array of the modes ``|kx| <= K``, ``ky = 0 .. K`` with
``K = grid.dealias_kmax``, rows ``kx = 0 .. K`` then ``-K .. -1`` (at
``512^2`` that is ``341 x 171``). A real field's coefficients satisfy
``c_{-k} = conj(c_k)``, so the block, with its self-mirrored column
``ky = 0`` Hermitian, determines every mode the 2/3 mask keeps. Every
operation returns a new field. Norms, spectra, P_N, the forces, the
stepper and the error records work on the block, through the grid's
block tables; ``sobolev_weights`` count each column ``ky > 0`` twice,
for itself and its mirror.

No code of the package builds the ``N x N`` lattice: ``to_physical``
pads the block with zeros into the ``N x (N/2+1)`` half-plane that
``irfft2`` reads, and a checkpoint file (version 2) holds the blocks.
Only the reader of version-1 files takes a stored lattice onto the block,
with ``to_block``, which drops every mode outside it. Both readers make
column ``ky = 0`` exactly Hermitian with ``make_hermitian``.
``SpectralField.coeffs`` still rebuilds the lattice by exact Hermitian
reflection (``from_block``) for callers outside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# L2 norm of a field equals PARSEVAL_FACTOR * euclidean norm of its
# coefficient array (box side 2*pi, amplitude-normalized transform).
PARSEVAL_FACTOR = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralGrid:
    """Wavenumber bookkeeping for an ``N x N`` periodic grid.

    Only ``resolution`` participates in equality/hashing; the derived
    arrays are attached once in ``__post_init__``, read-only, and all are
    tables on the dealiased block of ``block_shape``
    (``(2 dealias_kmax + 1, dealias_kmax + 1)``): ``block_kx``,
    ``block_ky``, ``block_ksq`` (``|k|^2``) and ``block_weights`` (the
    order-1 ``sobolev_weights``).
    """

    resolution: int

    def __post_init__(self):
        n = self.resolution
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid resolution must be an even integer >= 4, got {n}")
        kmax = self.dealias_kmax
        object.__setattr__(self, "block_shape", (2 * kmax + 1, kmax + 1))
        k1d = np.r_[0:kmax + 1, -kmax:0]
        block_kx, block_ky = np.meshgrid(k1d, k1d[:kmax + 1], indexing="ij")
        block_ksq = (block_kx * block_kx + block_ky * block_ky).astype(np.float64)
        for name, arr in (("block_kx", block_kx), ("block_ky", block_ky),
                          ("block_ksq", block_ksq)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block_weights", sobolev_weights(self, 1))

    @property
    def dealias_cutoff(self) -> float:
        # (2/3)*(N/2) = N/3 per axis
        return self.resolution / 3.0

    @property
    def dealias_kmax(self) -> int:
        """Largest ``|k_i|`` the 2/3 mask keeps: the largest with ``3 |k_i| < N``,
        so that products of kept modes never alias onto kept modes."""
        return (self.resolution - 1) // 3

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)


@lru_cache(maxsize=8)
def shared_grid(resolution: int) -> SpectralGrid:
    """The one grid per resolution: its wavenumber arrays are built once."""
    return SpectralGrid(resolution)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Mean-free, Hermitian-symmetric field, held as its dealiased block
    (read-only, in ``to_block``'s layout)."""

    grid: SpectralGrid
    block: np.ndarray

    def __post_init__(self):
        if self.block.shape != self.grid.block_shape:
            raise ValueError(
                f"coefficient array shape {self.block.shape} is not the grid's block "
                f"shape {self.grid.block_shape} (take a lattice onto it with to_block)"
            )
        self.block.setflags(write=False)

    @property
    def coeffs(self) -> np.ndarray:
        """The ``N x N`` lattice of the field, rebuilt by exact Hermitian
        reflection (read-only); no code of the package reads it."""
        full = from_block(self.block, self.grid.resolution)
        full.setflags(write=False)
        return full

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.block + other.block)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.block * scalar)

    __rmul__ = __mul__


def _check_same_grid(a: SpectralField, b: SpectralField):
    if a.grid.resolution != b.grid.resolution:
        raise ValueError(
            f"fields on different grids: {a.grid.resolution} vs {b.grid.resolution}"
        )


def zero_field(grid: SpectralGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.block_shape, dtype=np.complex128))


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform of the field. The field is real, so ``irfft2``
    reads only the columns ``ky = 0 .. N/2`` of the lattice: the block,
    padded with zeros into an ``N x (N/2+1)`` array, since every mode
    outside the block there is zero."""
    grid = field.grid
    n, kmax = grid.resolution, grid.dealias_kmax
    half = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    half[: kmax + 1, : kmax + 1] = field.block[: kmax + 1]
    half[n - kmax:, : kmax + 1] = field.block[kmax + 1:]
    return np.fft.irfft2(half, s=grid.shape, norm="forward")


def sobolev_weights(grid: SpectralGrid, n: int) -> np.ndarray:
    """Weights of ``sum |k|^(2n) |c_k|^2`` on the block (read-only, built
    per call).

    Column ``ky = 0`` holds each mode once; every other column stands for
    itself and its mirror, so counts twice. Summing these weights times
    ``|c_k|^2`` over the block of a Hermitian field gives the sum over the
    whole lattice. The mean mode weighs 1 at ``n = 0`` and 0 at any other
    order.
    """
    with np.errstate(divide="ignore"):
        power = grid.block_ksq**n
    power[0, 0] = float(n == 0)
    weights = 2.0 * power
    weights[:, 0] = power[:, 0]
    weights.setflags(write=False)
    return weights


def weighted_power(weights: np.ndarray, c: np.ndarray) -> float:
    """``sum(weights * |c|^2)`` with ``|c|^2`` as ``re^2 + im^2``; NaN and
    Inf propagate."""
    return float(np.vdot(weights, c.real * c.real + c.imag * c.imag))


def to_block(coeffs: np.ndarray, kmax: int) -> np.ndarray:
    """Copy of a full-lattice array on the dealiased block of the half-plane.

    The block holds the modes ``|kx| <= kmax``, ``ky = 0 .. kmax``: rows
    ``kx = 0 .. kmax`` then ``-kmax .. -1``, one column per ``ky``, so
    ``(2 kmax + 1) x (kmax + 1)``, made exactly Hermitian
    (``make_hermitian``)."""
    n = coeffs.shape[0]
    return make_hermitian(np.asarray(coeffs[np.r_[0:kmax + 1, n - kmax:n], : kmax + 1],
                                     dtype=np.complex128))


def make_hermitian(block: np.ndarray) -> np.ndarray:
    """Make a block exactly Hermitian, in place, and return it.

    Column ``ky = 0`` is its own mirror image: its ``kx < 0`` rows are
    reset to the conjugates of the ``kx > 0`` rows and its ``k = 0`` entry
    to its real part. For an exactly Hermitian block that changes no value
    (a zero imaginary part may change sign)."""
    col = block[:, 0]
    mirror_column(col)
    col[0] = col[0].real
    return block


def mirror_column(col: np.ndarray) -> None:
    """Set the ``kx < 0`` rows of a block's self-mirrored column (or of a
    stack of them along leading axes) to the conjugates of its ``kx > 0``
    rows, in place."""
    kmax = col.shape[-1] // 2
    np.conjugate(col[..., kmax:0:-1], out=col[..., kmax + 1:])


def from_block(block: np.ndarray, n: int) -> np.ndarray:
    """Full ``n x n`` lattice array from a block (see ``to_block``), by exact
    Hermitian reflection: ``c[kx, ky] = conj(c[-kx, -ky])`` fills the
    columns ``ky < 0``, and every mode outside the block and its mirror
    is zero."""
    kmax = block.shape[1] - 1
    full = np.zeros((n, n), dtype=np.complex128)
    full[: kmax + 1, : kmax + 1] = block[: kmax + 1]
    full[n - kmax:, : kmax + 1] = block[kmax + 1:]
    np.conjugate(full[0, kmax:0:-1], out=full[0, n - kmax:])
    np.conjugate(full[:0:-1, kmax:0:-1], out=full[1:, n - kmax:])
    return full


def project_low(field: SpectralField, cutoff: float) -> SpectralField:
    """Retain modes with |k| <= cutoff (euclidean, inclusive). Idempotent."""
    if not 0 < cutoff < math.inf:
        raise ValueError(f"projection cutoff must be positive, got {cutoff}")
    return SpectralField(field.grid, field.block * low_block(field.grid, cutoff))


@lru_cache(maxsize=16)
def low_block(grid: SpectralGrid, cutoff: float) -> np.ndarray:
    """The projection P_N, the ball |k| <= cutoff, as a boolean mask on the
    dealiased block (read-only, built once per grid and cutoff). When
    3 | N the ball also holds modes outside the block: no state has them."""
    mask = np.sqrt(grid.block_ksq) <= cutoff
    mask.setflags(write=False)
    return mask


def norm_hn(field: SpectralField, n: int = 0) -> float:
    """Sobolev-scale norm: 2*pi * sqrt(sum |k|^(2n) |c_k|^2), on the block.

    ``n=0`` is the L2 norm |u|, ``n=1`` the gradient norm ||u||. Negative
    ``n`` requires an exactly mean-free field.
    """
    if n < 0 and field.block[0, 0] != 0:
        raise ValueError("negative-order norm of a field with nonzero mean mode")
    total = weighted_power(sobolev_weights(field.grid, n), field.block)
    return PARSEVAL_FACTOR * float(np.sqrt(total))


def energy_spectrum(psi: SpectralField) -> np.ndarray:
    """Velocity energy shells of a streamfunction: S[m] = (2*pi)^2 times
    the sum of |k|^2 |psi_k|^2 over m <= |k| < m+1, on the block.

    Shells partition the lattice, so ``S.sum() == norm_hn(psi, 1)**2``
    up to roundoff. There is one shell per ``m`` up to the lattice's
    corner ``|k| = sqrt(2) N/2``; those past the block are zero.
    """
    grid = psi.grid
    shells = np.floor(np.sqrt(grid.block_ksq)).astype(np.int64)
    c = psi.block
    energy = PARSEVAL_FACTOR**2 * grid.block_weights * (c.real**2 + c.imag**2)
    corner = math.isqrt(2 * (grid.resolution // 2) ** 2)
    return np.bincount(shells.ravel(), weights=energy.ravel(), minlength=corner + 1)
