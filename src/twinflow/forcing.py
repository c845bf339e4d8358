"""Deterministic band-limited body force with Grashof renormalization.

A force is a divergence-free (curl-type) vector field supported on an
annulus of low wavenumbers. It is stored as a single scalar
``SpectralField`` - the amplitude profile whose Sobolev norms coincide
with the vector force's, levelwise: ``|A^(n/2) f| == norm_hn(profile, n)``.
The velocity components, when needed (e.g. for the sup-norm), are
recovered via ``fieldops.force_velocity``.

Every band mode gets unit magnitude and a phase derived from an integer
hash of ``(k, seed)``, so the force is bit-reproducible across runs and
platforms; the whole profile is then rescaled so the Grashof number hits
its target exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fieldops import force_velocity
from .spectral import SpectralField, SpectralGrid, norm_hn, to_physical

__all__ = [
    "ForcingSpec",
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
    ``grashof_target`` fixes the renormalization ``|f| = G * nu^2``.
    ``norm_kind`` selects which force norm the target constrains:
    ``"h"`` (the L2 norm, default) or ``"linf"`` (physical sup norm).
    """

    band_low: int = 10
    band_high: int = 12
    grashof_target: float = 1.0e5
    viscosity: float = 5.0e-4
    phase_seed: int = 0
    norm_kind: str = "h"

    def __post_init__(self):
        if self.band_low > self.band_high:
            raise ValueError(
                f"band_low={self.band_low} exceeds band_high={self.band_high}"
            )
        if self.grashof_target <= 0 or self.viscosity <= 0:
            raise ValueError("grashof_target and viscosity must be positive")
        if self.norm_kind not in ("h", "linf"):
            raise ValueError(f"norm_kind must be 'h' or 'linf', got {self.norm_kind!r}")


@lru_cache(maxsize=8)
def make_band_forcing(spec: ForcingSpec, grid: SpectralGrid) -> SpectralField:
    """Build the band force profile; |f| = grashof_target * nu^2 exactly.

    Built once per (spec, grid): the field is immutable, so a run, its
    spin-up and its blow-up check share one.
    """
    ksq_int = grid.kx.astype(np.int64) ** 2 + grid.ky.astype(np.int64) ** 2
    band = (ksq_int >= spec.band_low) & (ksq_int <= spec.band_high)
    band &= grid.dealias_mask
    band[0, 0] = False
    if not band.any():
        raise ValueError("forcing band contains no lattice modes")

    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    kx, ky = grid.kx, grid.ky
    for i, j in zip(*np.nonzero(band)):
        k1, k2 = int(kx[i, j]), int(ky[i, j])
        if (k1, k2) > (-k1, -k2):
            continue  # fill canonical half; mirror below
        phase = _mode_phase(k1, k2, spec.phase_seed)
        coeffs[i, j] = np.exp(1j * phase)
    # Hermitian mirror: c_{-k} = conj(c_k)
    n = grid.resolution
    idx = (-np.arange(n)) % n
    mirror = np.conj(coeffs[np.ix_(idx, idx)])
    coeffs = np.where(coeffs != 0, coeffs, mirror)

    field = SpectralField(grid, coeffs)
    target = spec.grashof_target * spec.viscosity**2
    if spec.norm_kind == "h":
        realized = norm_hn(field, 0)
    else:
        realized = force_sup_norm(field)
    return SpectralField(grid, coeffs * (target / realized))


def grashof(f: SpectralField, nu: float, norm_kind: str = "h") -> float:
    """Grashof number |f| / nu^2 (time-independent force).

    ``norm_kind="h"`` uses the L2 norm (the theorem-level definition);
    ``"linf"`` uses the physical sup norm.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    mag = norm_hn(f, 0) if norm_kind == "h" else force_sup_norm(f)
    return mag / nu**2


def force_sup_norm(f: SpectralField) -> float:
    """max over grid points of the pointwise force magnitude |f(x)|."""
    vel = force_velocity(f)
    fx, fy = to_physical(vel.ux), to_physical(vel.uy)
    return float(np.sqrt(np.max(fx * fx + fy * fy)))


def shape_factor(f: SpectralField, n: int) -> float:
    """Spectral localization ratio |A^(n/2) f| / |f|."""
    base = norm_hn(f, 0)
    if base == 0.0:
        raise ValueError("shape factor of a zero force is undefined")
    return norm_hn(f, n) / base


def absorbing_radii(f: SpectralField, nu: float) -> tuple[float, float]:
    """Radii of the forward-invariant balls: (nu*sigma_{-1}*G, nu*G)."""
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if norm_hn(f, 0) == 0.0:
        raise ValueError("absorbing radii of a zero force are undefined")
    g = grashof(f, nu)
    rho1 = nu * g
    rho0 = nu * shape_factor(f, -1) * g
    return rho0, rho1
