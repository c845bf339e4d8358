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
  (inclusive).

``SpectralField`` values are immutable: their coefficient arrays are
flagged read-only, and every operation returns a new field.

Fields at the API hold the full ``N x N`` lattice. A real field's
coefficients satisfy ``c_{-k} = conj(c_k)``, so the ``rfft2`` half-plane
(every ``kx``, ``ky = 0 .. N/2``) determines the rest. Norms, spectra and
the stepper's entry check sum over it with the column weights of
``half_plane_weights``, and ``to_physical`` transforms it: the columns
``ky < 0`` are never read. The stepper keeps less: the dealiased block of
the half-plane, the ``(2K+1) x (K+1)`` raw array of the modes
``|kx| <= K``, ``ky = 0 .. K`` with ``K = grid.dealias_kmax``, rows
``kx = 0 .. K`` then ``-K .. -1`` (``to_block`` / ``from_block``; at
``512^2`` that is ``341 x 171``, 44% of the half-plane); its blow-up
check and every error record sum over the block with the ``block_of``
of the same weights. Inputs to the stepper must be Hermitian: whatever
lives only in the dropped columns is lost, and so is every mode outside
the 2/3 mask.
"""

from __future__ import annotations

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
    arrays are attached once in ``__post_init__``, read-only. ``kx`` and
    ``ky`` are broadcast views of one wavenumber column and row (stride
    zero along the other axis), so they hold ``N`` integers each;
    ``ksq``, ``kmag`` and ``dealias_mask`` are full ``N x N`` arrays.
    """

    resolution: int

    def __post_init__(self):
        n = self.resolution
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid resolution must be an even integer >= 4, got {n}")
        k1d = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        # read-only views of one column and one row: every use reads them
        kx = np.broadcast_to(k1d[:, np.newaxis], (n, n))
        ky = np.broadcast_to(k1d, (n, n))
        ksq = (kx * kx + ky * ky).astype(np.float64)
        kmag = np.sqrt(ksq)
        kmax = self.dealias_kmax
        mask = (np.abs(kx) <= kmax) & (np.abs(ky) <= kmax)
        for name, arr in (
            ("kx", kx),
            ("ky", ky),
            ("ksq", ksq),
            ("kmag", kmag),
            ("dealias_mask", mask),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    """Mean-free, Hermitian-symmetric coefficient array on a grid."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"grid shape {self.grid.shape}"
            )
        self.coeffs.setflags(write=False)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a: SpectralField, b: SpectralField):
    if a.grid.resolution != b.grid.resolution:
        raise ValueError(
            f"fields on different grids: {a.grid.resolution} vs {b.grid.resolution}"
        )


def zero_field(grid: SpectralGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform of the half-plane (fields are real)."""
    return np.fft.irfft2(half_plane(field.coeffs), s=field.grid.shape, norm="forward")


def half_plane(arr: np.ndarray) -> np.ndarray:
    """View of a full-lattice array on the half-plane columns ``ky = 0 .. N/2``."""
    return arr[:, : arr.shape[0] // 2 + 1]


def half_plane_weights(grid: SpectralGrid, n: int) -> np.ndarray:
    """Weights of ``sum |k|^(2n) |c_k|^2`` on the half-plane (read-only).

    Columns ``ky = 0`` and ``ky = N/2`` hold each mode once; every other
    half-plane column stands for itself and its mirror, so counts twice.
    Summing these weights times ``|c_k|^2`` over the half-plane of a
    Hermitian array gives the full-lattice sum. The mean mode weighs 1 at
    ``n = 0`` and 0 at any other order. Only the order-1 table (the
    velocity energy ``|k|^2 |psi_k|^2``) is cached; other orders are
    built per call.
    """
    return _energy_weights(grid) if n == 1 else _weights(grid, n)


@lru_cache(maxsize=8)
def _energy_weights(grid: SpectralGrid) -> np.ndarray:
    return _weights(grid, 1)


def _weights(grid: SpectralGrid, n: int) -> np.ndarray:
    ksq = half_plane(grid.ksq)
    with np.errstate(divide="ignore"):
        power = ksq**n
    power[0, 0] = float(n == 0)
    weights = 2.0 * power
    weights[:, 0], weights[:, -1] = power[:, 0], power[:, -1]
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
    ``(2 kmax + 1) x (kmax + 1)``. Column ``ky = 0`` is its own mirror
    image; its ``kx < 0`` rows are reset to the conjugates of the ``kx > 0``
    rows and its ``k = 0`` entry to its real part, so the result is exactly
    Hermitian. For an exactly Hermitian input that changes no value (a
    zero imaginary part may change sign)."""
    block = np.asarray(block_of(coeffs, kmax), dtype=np.complex128)
    col = block[:, 0]
    mirror_column(col)
    col[0] = col[0].real
    return block


def block_of(arr: np.ndarray, kmax: int) -> np.ndarray:
    """Copy of any full-lattice array (masks, wavenumbers) on the block of
    ``to_block``, without its Hermitian fix."""
    n = arr.shape[0]
    return arr[np.r_[0:kmax + 1, n - kmax:n], : kmax + 1]


def mirror_column(col: np.ndarray) -> None:
    """Set the ``kx < 0`` rows of a block's self-mirrored column (or of a
    stack of them along leading axes) to the conjugates of its ``kx > 0``
    rows, in place."""
    kmax = col.shape[-1] // 2
    col[..., kmax + 1:] = np.conj(col[..., kmax:0:-1])


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
    if cutoff <= 0:
        raise ValueError(f"projection cutoff must be positive, got {cutoff}")
    return SpectralField(field.grid, field.coeffs * low_mode_mask(field.grid, cutoff))


@lru_cache(maxsize=32)
def low_mode_mask(grid: SpectralGrid, cutoff: float) -> np.ndarray:
    """Boolean mask of the projection ball |k| <= cutoff (read-only, built
    once per grid and cutoff)."""
    mask = grid.kmag <= cutoff
    mask.setflags(write=False)
    return mask


def norm_hn(field: SpectralField, n: int = 0) -> float:
    """Sobolev-scale norm: 2*pi * sqrt(sum |k|^(2n) |c_k|^2), on the half-plane.

    ``n=0`` is the L2 norm |u|, ``n=1`` the gradient norm ||u||. Negative
    ``n`` requires an exactly mean-free field.
    """
    if n < 0 and field.coeffs[0, 0] != 0:
        raise ValueError("negative-order norm of a field with nonzero mean mode")
    total = weighted_power(half_plane_weights(field.grid, n), half_plane(field.coeffs))
    return PARSEVAL_FACTOR * float(np.sqrt(total))


def energy_spectrum(psi: SpectralField) -> np.ndarray:
    """Velocity energy shells of a streamfunction: S[m] = (2*pi)^2 times
    the sum of |k|^2 |psi_k|^2 over m <= |k| < m+1, on the half-plane.

    Shells partition the lattice, so ``S.sum() == norm_hn(psi, 1)**2``
    up to roundoff.
    """
    shells = np.floor(half_plane(psi.grid.kmag)).astype(np.int64)
    c = half_plane(psi.coeffs)
    energy = PARSEVAL_FACTOR**2 * half_plane_weights(psi.grid, 1) * (c.real**2 + c.imag**2)
    return np.bincount(shells.ravel(), weights=energy.ravel())
