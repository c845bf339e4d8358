"""Coupling-term evaluation for intertwined pairs, plus cutoff thresholds.

Every coupling is one 2x2 matrix ``(a, b, c, d)`` applied to the
low-mode projections ``P_N`` of a pair of arrays ``(x1, x2)``:

    rhs1 = a P_N x1 + b P_N x2,    rhs2 = c P_N x1 + d P_N x2.

Synchronization couplings take ``x`` to be the nonlinear term ``B``
(Olson & Titi 2003); nudging couplings take the state ``psi`` (Azouani,
Olson & Titi 2014). The named variants are rows of one table:

    variant           acts on   (a, b, c, d)
    trivial           psi       (0, 0, 0, 0)
    mutual_sync       B         (theta1, -theta1, -theta2, theta2)
    degenerate_sync   B         (1, 0, 0, 1)
    mutual_nudge      psi       (-mu1, mu1, mu2, -mu2)
    symmetric_nudge   psi       (-mu1, mu2, mu2, -mu1)
    general_nudge     psi       (-m01, m00, m10, -m11)
    general_sync      B         (m00, -m01, -m11, m10)

with ``theta2 = 1 - theta1`` and ``(m00, m01, m10, m11)`` the configured
``matrix``. ``coupling_arrays`` returns the right-hand-side additions
for both systems on the observed modes, those of the cutoff ball
``|k| <= N`` (``spectral.low_block``; ``ExperimentConfig.check_cutoff``
refuses an ``N`` beyond the resolved band). The
threshold functions give, in closed form from Grashof numbers, the cutoffs
above which the pair synchronizes; the nudging ones return
``(n_assisted, n_unassisted)`` and ``(n_a, n_b)``, and
``experiment.threshold_report`` applies their windows for mu1 + mu2. The
symmetric-nudging ``n_b`` takes the paper's affine force split at
g_tilde = 0 (the general split is not exposed). The interpolation
constants they depend on (``c_lad``, ``c_agmon``, ``c_sob``) have no
certified numeric values; defaults of 1.0 make the outputs advisory scale
estimates, not rigorous bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "VARIANTS",
    "IntertwinementSpec",
    "coupling_arrays",
    "threshold_mutual_sync",
    "threshold_degenerate_sync",
    "threshold_mutual_nudge",
    "threshold_symmetric_nudge",
]

# variant -> (acts on the nonlinear term, its (a, b, c, d) from the spec)
_FORMS = {
    "trivial": (False, lambda s: (0.0, 0.0, 0.0, 0.0)),
    "mutual_sync": (True, lambda s: (s.theta1, -s.theta1, -s.theta2, s.theta2)),
    "degenerate_sync": (True, lambda s: (1.0, 0.0, 0.0, 1.0)),
    "mutual_nudge": (False, lambda s: (-s.mu1, s.mu1, s.mu2, -s.mu2)),
    "symmetric_nudge": (False, lambda s: (-s.mu1, s.mu2, s.mu2, -s.mu1)),
    "general_nudge": (
        False, lambda s: (-s.matrix[1], s.matrix[0], s.matrix[2], -s.matrix[3])
    ),
    "general_sync": (
        True, lambda s: (s.matrix[0], -s.matrix[1], -s.matrix[3], s.matrix[2])
    ),
}

VARIANTS = tuple(_FORMS)


@dataclass(frozen=True)
class IntertwinementSpec:
    """Tagged choice of coupling family, its parameters, and the cutoff N.

    ``matrix`` (row-major 2x2) is only read by the general variants. For
    ``general_nudge`` the entries are the state-exchange pattern
    ``rhs1 = m00*P_N psi2 - m01*P_N psi1``, ``rhs2 = m10*P_N psi1 - m11*P_N psi2``;
    for ``general_sync`` the pattern on nonlinear terms is
    ``rhs1 = m00*P_N B1 - m01*P_N B2``, ``rhs2 = m10*P_N B2 - m11*P_N B1``.
    The ``general_sync`` variant with theta weights outside {0,1} carries no
    well-posedness guarantee and is exposed for experimentation only.
    """

    variant: str = "trivial"
    cutoff: float = 20.0
    theta1: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0
    matrix: Optional[tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown coupling variant {self.variant!r}")
        if not 0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if not 0 <= self.theta1 <= 1:
            raise ValueError(f"theta1 must lie in [0, 1], got {self.theta1}")
        if not (0 <= self.mu1 < math.inf and 0 <= self.mu2 < math.inf):
            raise ValueError(
                f"mu1 and mu2 must be nonnegative and finite, got {self.mu1}, {self.mu2}"
            )
        if self.variant == "symmetric_nudge" and self.mu1 < self.mu2:
            raise ValueError(
                "symmetric nudging is canonicalized with mu1 >= mu2; "
                f"got mu1={self.mu1}, mu2={self.mu2}"
            )
        if self.variant in ("general_nudge", "general_sync") and self.matrix is None:
            raise ValueError(f"{self.variant} requires a 2x2 matrix")
        if self.matrix is not None and not all(map(math.isfinite, self.matrix)):
            raise ValueError(f"matrix entries must be finite, got {self.matrix}")

    @property
    def theta2(self) -> float:
        # complementary weight, theta1 + theta2 = 1 by construction
        return 1.0 - self.theta1

    @property
    def form(self) -> tuple[bool, tuple[float, float, float, float]]:
        """``(acts_on_nonlinear, (a, b, c, d))``: the coupling is
        ``rhs1 = a P_N x1 + b P_N x2``, ``rhs2 = c P_N x1 + d P_N x2`` with
        ``x`` the nonlinear term when ``acts_on_nonlinear``, else the state."""
        acts_on_nonlinear, entries = _FORMS[self.variant]
        return acts_on_nonlinear, entries(self)

    @cached_property
    def columns(self) -> np.ndarray:
        """The columns ``(a, c)`` and ``(b, d)`` of ``form``'s matrix as a
        read-only complex ``(2, 2, 1)`` array, built once per spec."""
        _, entries = self.form
        cols = np.array(entries, dtype=np.complex128).reshape(2, 2).T[:, :, np.newaxis]
        cols.setflags(write=False)
        return cols


def coupling_arrays(spec: IntertwinementSpec, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """RHS additions of both systems from their observed modes ``x[0]``,
    ``x[1]`` (``P_N`` of the states or of the nonlinear terms, per
    ``spec.form``), written into ``out`` of ``x``'s shape:
    ``out[0] = a x[0] + b x[1]`` and ``out[1] = c x[0] + d x[1]``."""
    first, second = spec.columns
    np.multiply(first, x[0], out=out)
    out += second * x[1]
    return out


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
    # products, not powers, here and below: they overflow to inf, not raise
    c2, g2 = c_lad * c_lad, glambda * glambda
    if lam in (0.0, 1.0):
        return max(48.0 * math.sqrt(3.0) * c2 * g2, c_agmon / c_lad / c_lad)
    return 15.0 * math.sqrt(27.0) * c2 * g2


def threshold_degenerate_sync(g: float, c_lad: float = 1.0, c_sob: float = 1.0) -> float:
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
            * math.sqrt(24.0 * (c_lad * c_lad + c_sob * c_sob * math.log(n)) * (g * g)
                        + 1.0)
            * g
        )

    n = max(explicit, 1.0)
    for _ in range(200):
        n_next = max(explicit, implicit(n), 1.0)
        # an overflowed iterate stays inf, and inf - inf is nan
        if math.isinf(n_next) or abs(n_next - n) <= 1e-12 * n_next:
            return n_next
        n = n_next
    raise RuntimeError("degenerate-synchronization cutoff iteration did not converge")


def threshold_mutual_nudge(
    mu1: float, mu2: float, g: float, *, c_lad: float = 1.0
) -> tuple[float, float]:
    """Mutual-nudging cutoffs ``(n_assisted, n_unassisted)``.

    With ``ratio = max(mu1, mu2)/min(mu1, mu2)``, ``n_assisted =
    4*sqrt(2)*c_lad*sqrt(ratio)*g^2`` suffices given low-mode agreement;
    ``n_unassisted = (3*sqrt(2)/2)*sqrt(c_lad*ratio)*g`` with
    ``4/3*n_unassisted^2*nu <= mu1+mu2 <= 4/3*N^2*nu`` (the window
    ``threshold_report`` applies) gives unassisted synchronization at cutoff N.
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
    n_assisted = 4.0 * math.sqrt(2.0) * c_lad * math.sqrt(ratio) * (g * g)
    n_unassisted = 1.5 * math.sqrt(2.0) * math.sqrt(c_lad) * math.sqrt(ratio) * g
    return n_assisted, n_unassisted


def threshold_symmetric_nudge(
    mu1: float, mu2: float, g: float, nu: float, c_lad: float = 1.0
) -> tuple[float, Optional[float]]:
    """Symmetric-nudging cutoffs ``(n_a, n_b)`` from the pair magnitude g.

    ``n_a = 4*c_lad*g``; ``n_b`` is None unless mu1 > mu2, where it is
    ``4*c_lad*sqrt(nu/(mu1-mu2)*g^2)``, the paper's
    ``4*c_lad*sqrt(nu/(mu1-mu2)*G_res^2 + g_tilde^2)`` with the affine split
    ``g = G_res + (mu1-mu2)*g_tilde`` at g_tilde = 0 (not exposed). For either
    cutoff n, ``threshold_report`` applies ``1/4*n^2*nu <= mu1+mu2 <= 1/4*N^2*nu``.
    """
    if g < 0:
        raise ValueError("grashof magnitude must be nonnegative")
    if not mu1 >= mu2 >= 0:
        raise ValueError(f"require mu1 >= mu2 >= 0, got mu1={mu1}, mu2={mu2}")
    n_a = 4.0 * c_lad * g
    n_b = None
    if mu1 > mu2:
        n_b = 4.0 * c_lad * math.sqrt(nu / (mu1 - mu2) * (g * g))
    return n_a, n_b
