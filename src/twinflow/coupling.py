"""Coupling-term evaluation for intertwined pairs, plus cutoff thresholds.

Two families of couplings act through the low-mode projection P_N:

* synchronization couplings exchange projected *nonlinear terms*
  (mutual, with weights theta1 + theta2 = 1; or degenerate, where each
  system re-adds its own projected nonlinearity), and
* nudging couplings exchange projected *states* (mutual: relax toward
  each other; symmetric: damp own low modes, feed the partner's).

``coupling_terms`` returns the streamfunction-level right-hand-side
additions for both systems. The threshold functions evaluate, in closed
form, how large the cutoff N (and for nudging, the relaxation window for
mu1 + mu2) must be for the coupled pair to synchronize. The interpolation
constants they depend on (``c_lad``, ``c_agmon``, ``c_sob``) have no
certified numeric values; defaults of 1.0 make the outputs advisory scale
estimates, not rigorous bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fieldops import nse_nonlinear_term
from .spectral import (
    SpectralField,
    SpectralGrid,
    StreamFunction,
    half_plane,
    norm_hn,
    zero_field,
)

__all__ = [
    "VARIANTS",
    "IntertwinementSpec",
    "IntertwiningMatrix",
    "eigenvalues",
    "GrashofBundle",
    "coupling_terms",
    "coupling_arrays",
    "observation_mask",
    "threshold_mutual_sync",
    "threshold_degenerate_sync",
    "threshold_mutual_nudge",
    "threshold_symmetric_nudge",
    "MutualNudgeThresholds",
    "SymmetricNudgeThresholds",
]

VARIANTS = (
    "trivial",
    "mutual_sync",
    "degenerate_sync",
    "mutual_nudge",
    "symmetric_nudge",
    "general_nudge",
    "general_sync",
)


@dataclass(frozen=True)
class IntertwinementSpec:
    """Tagged choice of coupling family, its parameters, and the cutoff N.

    ``matrix`` (row-major 2x2) is only read by the general variants. For
    ``general_nudge`` the entries are the state-exchange pattern
    ``rhs1 = m00*P_N psi2 - m01*P_N psi1``, ``rhs2 = m10*P_N psi1 - m11*P_N psi2``;
    for ``general_sync`` the analogous pattern on nonlinear terms. The
    ``general_sync`` variant with theta weights outside {0,1} carries no
    well-posedness guarantee and is exposed for experimentation only.
    """

    variant: str
    cutoff: float
    theta1: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0
    matrix: Optional[tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown coupling variant {self.variant!r}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.variant in ("mutual_nudge", "symmetric_nudge"):
            if self.mu1 < 0 or self.mu2 < 0:
                raise ValueError("nudging strengths must be nonnegative")
        if self.variant == "symmetric_nudge" and self.mu1 < self.mu2:
            raise ValueError(
                "symmetric nudging is canonicalized with mu1 >= mu2; "
                f"got mu1={self.mu1}, mu2={self.mu2}"
            )
        if self.variant in ("general_nudge", "general_sync") and self.matrix is None:
            raise ValueError(f"{self.variant} requires a 2x2 matrix")

    @property
    def theta2(self) -> float:
        # complementary weight, theta1 + theta2 = 1 by construction
        return 1.0 - self.theta1

    @property
    def needs_nonlinear(self) -> bool:
        return self.variant in ("mutual_sync", "degenerate_sync", "general_sync")


@dataclass(frozen=True)
class IntertwiningMatrix:
    """Symmetric coupling-strength matrix [[mu1, -mu2], [-mu2, mu1]]."""

    mu1: float
    mu2: float

    @property
    def entries(self) -> np.ndarray:
        return np.array([[self.mu1, -self.mu2], [-self.mu2, self.mu1]])

    def eigenvalues(self) -> tuple[float, float]:
        return (self.mu1 - self.mu2, self.mu1 + self.mu2)

    @property
    def is_nonnegative_definite(self) -> bool:
        return self.mu1 >= abs(self.mu2)

    def as_general_nudge(self, cutoff: float) -> IntertwinementSpec:
        """General-nudge spec whose coupling is -M P_N (psi1, psi2)."""
        return IntertwinementSpec(
            "general_nudge",
            cutoff,
            matrix=(self.mu2, self.mu1, self.mu2, self.mu1),
        )


def eigenvalues(m: IntertwiningMatrix) -> tuple[float, float]:
    """(mu1 - mu2, mu1 + mu2)."""
    return m.eigenvalues()


def observation_mask(
    spec: IntertwinementSpec, grid: SpectralGrid, half: bool = False
) -> np.ndarray:
    """The projection P_N as a boolean mask, after checking N is resolved.

    ``half=True`` gives the mask on the ``rfft2`` half-plane the stepper
    works on, a slice of the full-lattice one.
    """
    if spec.cutoff > grid.dealias_cutoff:
        raise ValueError(
            f"observation cutoff exceeds resolved band: N={spec.cutoff} > "
            f"{grid.dealias_cutoff}"
        )
    kmag = half_plane(grid.kmag) if half else grid.kmag
    return kmag <= spec.cutoff


def coupling_arrays(spec: IntertwinementSpec, psi1, psi2, n1, n2, mask):
    """RHS additions (c1, c2) from raw coefficient arrays of any shape.

    ``n1``, ``n2`` are the nonlinear terms (read only by the synchronization
    variants) and ``mask`` is P_N on the same coefficient layout. Returns
    ``None`` for the trivial coupling, which adds nothing.
    """
    if spec.variant == "trivial":
        return None
    if spec.variant == "mutual_sync":
        diff = (n1 - n2) * mask
        return spec.theta1 * diff, spec.theta2 * -diff
    if spec.variant == "degenerate_sync":
        return n1 * mask, n2 * mask
    if spec.variant == "general_sync":
        # rhs1 = m00 P_N n1 - m01 P_N n2, rhs2 = m10 P_N n2 - m11 P_N n1
        m00, m01, m10, m11 = spec.matrix
        p1, p2 = n1 * mask, n2 * mask
        return m00 * p1 - m01 * p2, m10 * p2 - m11 * p1

    p1, p2 = psi1 * mask, psi2 * mask
    if spec.variant == "mutual_nudge":
        return spec.mu1 * p2 - spec.mu1 * p1, spec.mu2 * p1 - spec.mu2 * p2
    if spec.variant == "symmetric_nudge":
        return spec.mu2 * p2 - spec.mu1 * p1, spec.mu2 * p1 - spec.mu1 * p2
    # general_nudge
    m00, m01, m10, m11 = spec.matrix
    return m00 * p2 - m01 * p1, m10 * p1 - m11 * p2


def coupling_terms(
    spec: IntertwinementSpec,
    psi1: StreamFunction,
    psi2: StreamFunction,
    precomputed_nonlinear: Optional[tuple[SpectralField, SpectralField]] = None,
) -> tuple[SpectralField, SpectralField]:
    """Streamfunction-level RHS additions (c1, c2) for the coupled pair.

    When the caller already evaluated the nonlinear terms for the main
    update it passes them in; they are never recomputed in that case.
    """
    grid = psi1.grid
    if psi2.grid.resolution != grid.resolution:
        raise ValueError("coupled fields live on different grids")
    mask = observation_mask(spec, grid)
    n1 = n2 = None
    if spec.needs_nonlinear:
        if precomputed_nonlinear is not None:
            n1, n2 = (n.coeffs for n in precomputed_nonlinear)
        else:
            n1, n2 = nse_nonlinear_term(psi1).coeffs, nse_nonlinear_term(psi2).coeffs
    terms = coupling_arrays(spec, psi1.coeffs, psi2.coeffs, n1, n2, mask)
    if terms is None:
        return zero_field(grid), zero_field(grid)
    return SpectralField(grid, terms[0]), SpectralField(grid, terms[1])


@dataclass(frozen=True)
class GrashofBundle:
    """Force pair plus the nondimensional magnitudes the thresholds need.

    For the optional affine split ``g = G_residual + mu_tilde * g_tilde``
    (used by the gap-assisted symmetric-nudging cutoff) pass the tilde
    components; with the default of zero tilde parts the residual is the
    force pair itself.
    """

    g1: SpectralField
    g2: SpectralField
    nu: float
    tilde_g1: Optional[SpectralField] = None
    tilde_g2: Optional[SpectralField] = None
    mu_tilde: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")

    @property
    def g1_number(self) -> float:
        return norm_hn(self.g1, 0) / self.nu**2

    @property
    def g2_number(self) -> float:
        return norm_hn(self.g2, 0) / self.nu**2

    @property
    def g_rms(self) -> float:
        """Root-sum-square pair magnitude, g^2 = g1^2 + g2^2."""
        return math.hypot(self.g1_number, self.g2_number)

    @property
    def g_max(self) -> float:
        """max(g1, g2), the degenerate-synchronization magnitude."""
        return max(self.g1_number, self.g2_number)

    def g_lambda(self, lam: float) -> float:
        """Magnitude of the convex combination (1-lam)*g1 + lam*g2."""
        mix = (1.0 - lam) * self.g1.coeffs + lam * self.g2.coeffs
        mixed = SpectralField(self.g1.grid, mix)
        return norm_hn(mixed, 0) / self.nu**2

    @property
    def tilde_g_rms(self) -> float:
        parts = []
        for tg in (self.tilde_g1, self.tilde_g2):
            parts.append(0.0 if tg is None else norm_hn(tg, 0) / self.nu**2)
        return math.hypot(parts[0], parts[1])

    def residual_number(self, mu_tilde: Optional[float] = None) -> float:
        """Pair magnitude of g - mu_tilde * g_tilde (H x H norm)."""
        mt = self.mu_tilde if mu_tilde is None else mu_tilde
        r1 = self.g1.coeffs.copy()
        r2 = self.g2.coeffs.copy()
        if self.tilde_g1 is not None:
            r1 -= mt * self.tilde_g1.coeffs
        if self.tilde_g2 is not None:
            r2 -= mt * self.tilde_g2.coeffs
        n1 = norm_hn(SpectralField(self.g1.grid, r1), 0)
        n2 = norm_hn(SpectralField(self.g2.grid, r2), 0)
        return math.hypot(n1, n2) / self.nu**2


def threshold_mutual_sync(
    glambda: float, lam: float, c_lad: float = 1.0, c_agmon: float = 1.0
) -> float:
    """Cutoff above which mutual synchronization is self-synchronous.

    Boundary weights (lam in {0, 1}) need
    ``max(48*sqrt(3)*c_lad^2*g^2, c_agmon/c_lad^2)``; interior weights
    need ``15*sqrt(27)*c_lad^2*g^2``.
    """
    if glambda < 0:
        raise ValueError("grashof magnitude must be nonnegative")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if lam in (0.0, 1.0):
        return max(48.0 * math.sqrt(3.0) * c_lad**2 * glambda**2, c_agmon / c_lad**2)
    return 15.0 * math.sqrt(27.0) * c_lad**2 * glambda**2


def threshold_degenerate_sync(
    g: float, c_lad: float = 1.0, c_sob: float = 1.0, max_iter: int = 200
) -> float:
    """Smallest cutoff satisfying both degenerate-synchronization bounds.

    The first bound is explicit, ``max(9*sqrt(3)/c_lad, 12*sqrt(2)*c_lad)*g``.
    The second is implicit through a log(N) term and is solved by
    fixed-point iteration seeded from the first (the log grows sublinearly,
    so the iteration contracts for any finite input).
    """
    if g < 0:
        raise ValueError("grashof magnitude must be nonnegative")
    explicit = max(9.0 * math.sqrt(3.0) / c_lad, 12.0 * math.sqrt(2.0) * c_lad) * g
    if g == 0.0:
        return max(explicit, 1.0)

    def implicit(n: float) -> float:
        return (
            32.0
            * math.sqrt(2.0)
            * c_lad
            * math.sqrt(24.0 * (c_lad**2 + c_sob**2 * math.log(n)) * g**2 + 1.0)
            * g
        )

    n = max(explicit, 1.0)
    for _ in range(max_iter):
        n_next = max(explicit, implicit(n), 1.0)
        if abs(n_next - n) <= 1e-12 * max(n_next, 1.0):
            return max(n_next, 1.0)
        n = n_next
    raise RuntimeError("degenerate-synchronization cutoff iteration did not converge")


@dataclass(frozen=True)
class MutualNudgeThresholds:
    """Cutoffs for mutual nudging plus the admissible relaxation window."""

    n_assisted: float
    n_unassisted: float
    nu: float

    def mu_band(self, n: float) -> tuple[float, float]:
        """[4/3*N_*^2*nu, 4/3*N^2*nu], the mu1+mu2 window at cutoff N."""
        lo = (4.0 / 3.0) * self.n_unassisted**2 * self.nu
        hi = (4.0 / 3.0) * n**2 * self.nu
        return lo, hi


def threshold_mutual_nudge(
    mu1: float, mu2: float, g: float, nu: float, c_lad: float = 1.0
) -> MutualNudgeThresholds:
    """Mutual-nudging cutoffs; both scale with sqrt(max(mu)/min(mu)).

    ``n_assisted = 4*sqrt(2)*c_lad*sqrt(ratio)*g^2`` suffices given
    low-mode agreement; ``n_unassisted = (3*sqrt(2)/2)*sqrt(c_lad*ratio)*g``
    paired with mu1+mu2 inside ``mu_band(N)`` gives unassisted
    synchronization.
    """
    if g < 0:
        raise ValueError("grashof magnitude must be nonnegative")
    if min(mu1, mu2) <= 0:
        raise ValueError(
            "assisted threshold undefined at degenerate ratio: "
            "mutual nudging requires mu1, mu2 > 0 (the one-sided filter is the "
            "symmetric variant with mu2 = 0)"
        )
    ratio = max(mu1, mu2) / min(mu1, mu2)
    n_assisted = 4.0 * math.sqrt(2.0) * c_lad * math.sqrt(ratio) * g**2
    n_unassisted = 1.5 * math.sqrt(2.0) * math.sqrt(c_lad) * math.sqrt(ratio) * g
    return MutualNudgeThresholds(n_assisted, n_unassisted, nu)


@dataclass(frozen=True)
class SymmetricNudgeThresholds:
    """Cutoffs and admissibility predicates for symmetric nudging."""

    n_a: float
    mu1: float
    mu2: float
    nu: float
    _n_b: Optional[float] = None

    @property
    def n_b(self) -> float:
        """Gap-assisted cutoff; defined only when mu1 > mu2 strictly."""
        if self._n_b is None:
            raise ValueError("strict gap mu1 > mu2 required for the gap-assisted cutoff")
        return self._n_b

    @property
    def has_n_b(self) -> bool:
        return self._n_b is not None

    def mu_constraint_a(self, n: float) -> bool:
        """1/4*N_A^2*nu <= mu1+mu2 <= 1/4*N^2*nu (closed interval)."""
        total = self.mu1 + self.mu2
        return 0.25 * self.n_a**2 * self.nu <= total <= 0.25 * n**2 * self.nu

    def mu_constraint_b(self, n: float) -> bool:
        """Same window anchored at the gap-assisted cutoff."""
        total = self.mu1 + self.mu2
        return 0.25 * self.n_b**2 * self.nu <= total <= 0.25 * n**2 * self.nu


def threshold_symmetric_nudge(
    mu1: float, mu2: float, bundle: GrashofBundle, nu: float, c_lad: float = 1.0
) -> SymmetricNudgeThresholds:
    """Symmetric-nudging cutoffs from the force bundle.

    ``n_a = 4*c_lad*g`` always applies; when mu1 > mu2 the gap-assisted
    alternative ``n_b = 4*c_lad*sqrt(nu/(mu1-mu2)*G_res^2 + g_tilde^2)``
    uses the bundle's affine split with mu_tilde = mu1 - mu2.
    """
    if not mu1 >= mu2 >= 0:
        raise ValueError(f"require mu1 >= mu2 >= 0, got mu1={mu1}, mu2={mu2}")
    n_a = 4.0 * c_lad * bundle.g_rms
    n_b = None
    if mu1 > mu2:
        gap = mu1 - mu2
        n_b = 4.0 * c_lad * math.sqrt(
            (nu / gap) * bundle.residual_number(gap) ** 2 + bundle.tilde_g_rms**2
        )
    return SymmetricNudgeThresholds(n_a, mu1, mu2, nu, n_b)
