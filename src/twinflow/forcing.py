"""Deterministic band-limited body force with Grashof renormalization.

A force is a divergence-free (curl-type) vector field supported on an
annulus of low wavenumbers. It is stored as a single scalar
``SpectralField`` - the amplitude profile whose Sobolev norms coincide
with the vector force's, levelwise: ``|A^(n/2) f| == norm_hn(profile, n)``.
The sup-norm builds the velocity components from the profile
(``force_sup_norm``).

Every band mode gets unit magnitude and a phase derived from an integer
hash of ``(k, seed)``, so the force is bit-reproducible across runs and
platforms; the whole profile is then rescaled so the Grashof number hits
its target exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fieldops import stream_force_term
from .spectral import SpectralField, SpectralGrid, norm_hn, to_physical

__all__ = [
    "ForcingSpec",
    "band_mask",
    "make_band_forcing",
    "grashof",
    "force_sup_norm",
    "shape_factor",
    "absorbing_radii",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mode_phase(k1: int, k2: int, seed: int) -> float:
    """Deterministic phase in [0, 2*pi) from a chained splitmix64 hash."""
    h = _splitmix64(seed & _MASK64)
    h = _splitmix64(h ^ (k1 & _MASK64))
    h = _splitmix64(h ^ (k2 & _MASK64))
    return 2.0 * np.pi * (h / 2.0**64)


@dataclass(frozen=True)
class ForcingSpec:
    """Band + target defining a deterministic body force.

    ``band_low <= |k|^2 <= band_high`` is the support annulus;
    ``grashof_target`` fixes the renormalization ``|f| = G * nu^2`` at the
    viscosity ``nu`` the force is built for (see ``make_band_forcing``).
    ``norm_kind`` selects which force norm the target constrains:
    ``"h"`` (the L2 norm, default) or ``"linf"`` (physical sup norm).
    """

    band_low: int = 10
    band_high: int = 12
    grashof_target: float = 1.0e5
    phase_seed: int = 0
    norm_kind: str = "h"

    def __post_init__(self):
        if self.band_low > self.band_high:
            raise ValueError(
                f"band_low={self.band_low} exceeds band_high={self.band_high}"
            )
        if not 0 < self.grashof_target < math.inf:
            raise ValueError(
                f"grashof_target must be positive and finite, got {self.grashof_target}"
            )
        if self.norm_kind not in ("h", "linf"):
            raise ValueError(f"norm_kind must be 'h' or 'linf', got {self.norm_kind!r}")


def band_mask(spec: ForcingSpec, grid: SpectralGrid) -> np.ndarray:
    """The force's support on the block: k != 0, band_low <= |k|^2 <= band_high."""
    ksq = grid.block_ksq
    return (ksq >= max(spec.band_low, 1)) & (ksq <= spec.band_high)


@lru_cache(maxsize=8)
def make_band_forcing(spec: ForcingSpec, grid: SpectralGrid, nu: float) -> SpectralField:
    """Build the band force profile; |f| = grashof_target * nu^2 exactly.

    Built once per (spec, grid, nu): the field is immutable, so a run, its
    spin-up and its blow-up check share one.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"viscosity must be positive, got {nu}")
    kx, ky = grid.block_kx, grid.block_ky
    band = band_mask(spec, grid)
    if not band.any():
        raise ValueError("forcing band contains no lattice modes")

    # each mode pair takes the phase of its lexicographically smaller
    # member, c_{-k} = conj(c_k): column ky = 0 holds both members
    block = np.zeros(band.shape, dtype=np.complex128)
    for i, j in zip(*np.nonzero(band)):
        k = (int(kx[i, j]), int(ky[i, j]))
        smaller = min(k, (-k[0], -k[1]))
        c = np.exp(1j * _mode_phase(*smaller, spec.phase_seed))
        block[i, j] = c if k == smaller else np.conj(c)

    field = SpectralField(grid, block)
    target = spec.grashof_target * nu**2
    if spec.norm_kind == "h":
        realized = norm_hn(field, 0)
    else:
        realized = force_sup_norm(field)
    return SpectralField(grid, block * (target / realized))


def grashof(f: SpectralField, nu: float) -> float:
    """Grashof number |f| / nu^2 (time-independent force), with the L2
    norm of the theorems."""
    if not 0 < nu < math.inf:
        raise ValueError(f"viscosity must be positive, got {nu}")
    return norm_hn(f, 0) / nu**2


def force_sup_norm(f: SpectralField) -> float:
    """max over grid points of the pointwise force magnitude |f(x)|: the
    force is the perp-gradient of ``stream_force_term(f)``."""
    grid, g = f.grid, stream_force_term(f).block
    fx, fy = (to_physical(SpectralField(grid, d * g))
              for d in (-1j * grid.block_ky, 1j * grid.block_kx))
    return float(np.sqrt(np.max(fx * fx + fy * fy)))


def shape_factor(f: SpectralField, n: int) -> float:
    """Spectral localization ratio |A^(n/2) f| / |f|."""
    base = norm_hn(f, 0)
    if base == 0.0:
        raise ValueError("shape factor of a zero force is undefined")
    return norm_hn(f, n) / base


def absorbing_radii(f: SpectralField, nu: float) -> tuple[float, float]:
    """Radii of the forward-invariant balls: (nu*sigma_{-1}*G, nu*G)."""
    if not 0 < nu < math.inf:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if norm_hn(f, 0) == 0.0:
        raise ValueError("absorbing radii of a zero force are undefined")
    g = grashof(f, nu)
    rho1 = nu * g
    rho0 = nu * shape_factor(f, -1) * g
    return rho0, rho1
