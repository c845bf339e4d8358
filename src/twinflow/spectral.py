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
  mask ``|k_i| <= N/3``. Spectral ball projections use the circular mask
  ``|k| <= cutoff`` (inclusive).

``SpectralField`` values are immutable: their coefficient arrays are
flagged read-only, and every operation returns a new field.

Fields at the API hold the full ``N x N`` lattice. The time stepper works
on raw ``N x (N/2+1)`` arrays instead: the ``rfft2`` half-plane, which
keeps every ``kx`` and ``ky = 0 .. N/2``. A real field's coefficients
satisfy ``c_{-k} = conj(c_k)``, so the half-plane determines the rest
(``to_half`` / ``from_half``). Inputs to the stepper must be Hermitian:
whatever lives only in the dropped columns is lost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# L2 norm of a field equals PARSEVAL_FACTOR * euclidean norm of its
# coefficient array (box side 2*pi, amplitude-normalized transform).
PARSEVAL_FACTOR = 2.0 * np.pi

# Opt-in invariant checking (Hermitian symmetry, mean-free) after
# constructions that could break them. Off by default: the solver's
# operations preserve the invariants structurally.
DEBUG_CHECKS = bool(os.environ.get("TWINFLOW_DEBUG_CHECKS"))


@dataclass(frozen=True)
class SpectralGrid:
    """Wavenumber bookkeeping for an ``N x N`` periodic grid.

    Only ``resolution`` participates in equality/hashing; the derived
    arrays are attached once in ``__post_init__`` and never mutated.
    """

    resolution: int

    def __post_init__(self):
        n = self.resolution
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid resolution must be an even integer >= 4, got {n}")
        k1d = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        kx, ky = np.meshgrid(k1d, k1d, indexing="ij")
        ksq = (kx * kx + ky * ky).astype(np.float64)
        kmag = np.sqrt(ksq)
        cutoff = self.dealias_cutoff
        mask = (np.abs(kx) <= cutoff) & (np.abs(ky) <= cutoff)
        x1d = 2.0 * np.pi * np.arange(n) / n - np.pi
        for name, arr in (
            ("kx", kx),
            ("ky", ky),
            ("ksq", ksq),
            ("kmag", kmag),
            ("dealias_mask", mask),
            ("x1d", x1d),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dealias_cutoff(self) -> float:
        # (2/3)*(N/2) = N/3 per axis
        return self.resolution / 3.0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)

    def physical_coords(self):
        """Meshgrid ``(x, y)`` of physical sample points, 'ij' indexed."""
        return np.meshgrid(self.x1d, self.x1d, indexing="ij")


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
        if DEBUG_CHECKS:
            assert_field_invariants(self)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


# The solver state is a streamfunction stored as a plain spectral field;
# the alias records intent at call sites.
StreamFunction = SpectralField


def _check_same_grid(a: SpectralField, b: SpectralField):
    if a.grid.resolution != b.grid.resolution:
        raise ValueError(
            f"fields on different grids: {a.grid.resolution} vs {b.grid.resolution}"
        )


def zero_field(grid: SpectralGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def field_from_coeffs(grid: SpectralGrid, coeffs: np.ndarray) -> SpectralField:
    """Wrap a coefficient array, zeroing the mean mode."""
    c = np.array(coeffs, dtype=np.complex128)
    c[0, 0] = 0.0
    return SpectralField(grid, c)


def field_from_physical(grid: SpectralGrid, values: np.ndarray) -> SpectralField:
    """Transform real physical samples to a mean-free spectral field."""
    c = np.fft.fft2(np.asarray(values, dtype=np.float64), norm="forward")
    c[0, 0] = 0.0
    return SpectralField(grid, c)


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform; imaginary residue is dropped (fields are real)."""
    return np.fft.ifft2(field.coeffs, norm="forward").real


def half_plane(arr: np.ndarray) -> np.ndarray:
    """View of a full-lattice array on the half-plane columns ``ky = 0 .. N/2``."""
    return arr[:, : arr.shape[0] // 2 + 1]


def to_half(coeffs: np.ndarray) -> np.ndarray:
    """Half-plane copy (columns ``ky = 0 .. N/2``) of a full-lattice array.

    Columns ``ky = 0`` and ``ky = N/2`` are their own mirror images; their
    ``kx < 0`` rows are reset to the conjugates of the ``kx > 0`` rows and
    their self-mirrored entries to real values, so the result is exactly
    Hermitian. For an exactly Hermitian input that changes nothing.
    """
    n = coeffs.shape[0]
    half = np.array(half_plane(coeffs), dtype=np.complex128)
    for j in (0, n // 2):
        col = half[:, j]
        mirror_column(col)
        col[0] = col[0].real
        col[n // 2] = col[n // 2].real
    return half


def mirror_column(col: np.ndarray) -> None:
    """Set the ``kx < 0`` rows of a self-mirrored column to the conjugates
    of its ``kx > 0`` rows, in place."""
    n = col.shape[0]
    col[n // 2 + 1:] = np.conj(col[n // 2 - 1:0:-1])


def from_half(half: np.ndarray) -> np.ndarray:
    """Full-lattice array from a half-plane one, by exact Hermitian reflection.

    ``c[kx, ky] = conj(c[-kx, -ky])`` fills the columns ``ky < 0``; the
    half-plane columns are copied unchanged.
    """
    n, m = half.shape
    full = np.empty((n, n), dtype=np.complex128)
    full[:, :m] = half
    np.conjugate(half[0, m - 2:0:-1], out=full[0, m:])
    np.conjugate(half[:0:-1, m - 2:0:-1], out=full[1:, m:])
    return full


def hermitianize(field: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric part, (c_k + conj(c_{-k}))/2."""
    c = field.coeffs
    sym = 0.5 * (c + np.conj(c[_reflect(field.grid)]))
    return SpectralField(field.grid, sym)


@lru_cache(maxsize=8)
def _reflect(grid: SpectralGrid):
    n = grid.resolution
    idx = (-np.arange(n)) % n
    return np.ix_(idx, idx)


def hermitian_defect(field: SpectralField) -> float:
    """Max |c_k - conj(c_{-k})| over the lattice."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[_reflect(field.grid)]))))


def assert_field_invariants(field: SpectralField, tol: float = 1e-12):
    scale = float(np.max(np.abs(field.coeffs))) or 1.0
    if abs(field.coeffs[0, 0]) > tol * scale:
        raise AssertionError("field is not mean-free")
    if hermitian_defect(field) > tol * scale:
        raise AssertionError("field is not Hermitian-symmetric")


def dealias(field: SpectralField) -> SpectralField:
    """Apply the square 2/3 mask: zero modes with |k_i| > N/3. Idempotent."""
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask)


def project_low(field: SpectralField, cutoff: float) -> SpectralField:
    """Retain modes with |k| <= cutoff (euclidean, inclusive). Idempotent."""
    if cutoff <= 0:
        raise ValueError(f"projection cutoff must be positive, got {cutoff}")
    mask = field.grid.kmag <= cutoff
    return SpectralField(field.grid, field.coeffs * mask)


def project_high(field: SpectralField, cutoff: float) -> SpectralField:
    """Complementary projection: zero modes with |k| <= cutoff."""
    if cutoff <= 0:
        raise ValueError(f"projection cutoff must be positive, got {cutoff}")
    mask = field.grid.kmag > cutoff
    return SpectralField(field.grid, field.coeffs * mask)


def low_mode_mask(grid: SpectralGrid, cutoff: float) -> np.ndarray:
    """Boolean mask of the projection ball |k| <= cutoff."""
    return grid.kmag <= cutoff


def norm_hn(field: SpectralField, n: int = 0) -> float:
    """Sobolev-scale norm: 2*pi * sqrt(sum |k|^(2n) |c_k|^2).

    ``n=0`` is the L2 norm |u|, ``n=1`` the gradient norm ||u||. Negative
    ``n`` requires an exactly mean-free field.
    """
    c = field.coeffs
    if n == 0:
        total = np.sum(np.abs(c) ** 2)
        return PARSEVAL_FACTOR * float(np.sqrt(total))
    if n < 0 and c[0, 0] != 0:
        raise ValueError("negative-order norm of a field with nonzero mean mode")
    ksq = field.grid.ksq
    with np.errstate(divide="ignore"):
        weights = np.where(ksq > 0, ksq**n, 0.0)
    total = np.sum(weights * np.abs(c) ** 2)
    return PARSEVAL_FACTOR * float(np.sqrt(total))


def inner_h(a: SpectralField, b: SpectralField) -> float:
    """L2 inner product (u, v) = integral of u*v over the box."""
    _check_same_grid(a, b)
    return PARSEVAL_FACTOR**2 * float(np.real(np.vdot(a.coeffs, b.coeffs)))


def spectral_power(field: SpectralField, p: float) -> SpectralField:
    """Multiply coefficients by |k|^p, zeroing the mean mode.

    ``p=2`` is -laplacian, ``p=-2`` its inverse, ``p=1`` maps a
    streamfunction to a field with the induced velocity's norms.
    """
    kmag = field.grid.kmag
    with np.errstate(divide="ignore"):
        weights = np.where(kmag > 0, kmag**p, 0.0)
    return SpectralField(field.grid, field.coeffs * weights)


def laplacian(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * (-field.grid.ksq))


def inv_laplacian(field: SpectralField) -> SpectralField:
    """Inverse laplacian with the mean-free convention (zero at k=0)."""
    ksq = field.grid.ksq
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(ksq > 0, -1.0 / ksq, 0.0)
    return SpectralField(field.grid, field.coeffs * inv)


def energy_spectrum(field: SpectralField) -> np.ndarray:
    """Shell energies S[m] = sum of |u|^2 over m <= |k| < m+1.

    Shells partition the lattice, so ``S.sum() == norm_hn(field, 0)**2``
    up to roundoff.
    """
    shells = np.floor(field.grid.kmag).astype(np.int64)
    weights = PARSEVAL_FACTOR**2 * np.abs(field.coeffs) ** 2
    return np.bincount(shells.ravel(), weights=weights.ravel())
