import math
from dataclasses import replace

import numpy as np
import pytest

import twinflow as tf
from twinflow.config import ConfigError
from twinflow.coupling import coupling_arrays
from twinflow.experiment import run_experiment
from twinflow.spectral import PARSEVAL_FACTOR, low_block
from twinflow.stepping import advance

from conftest import nonlinear_full, random_psi, tiny_config
from oracles import lattice_kmag

ALL_VARIANT_SPECS = [
    tf.IntertwinementSpec("trivial", 10.0),
    tf.IntertwinementSpec("mutual_sync", 10.0, theta1=0.25),
    tf.IntertwinementSpec("degenerate_sync", 10.0),
    tf.IntertwinementSpec("mutual_nudge", 10.0, mu1=50.0, mu2=25.0),
    tf.IntertwinementSpec("symmetric_nudge", 10.0, mu1=50.0, mu2=25.0),
    tf.IntertwinementSpec("general_nudge", 10.0, matrix=(1.0, 3.0, 0.5, 2.0)),
    tf.IntertwinementSpec("general_sync", 10.0, matrix=(0.7, 0.3, 0.6, 0.4)),
]

# each named variant next to the general-matrix spec that means the same
# coupling, from the documented general patterns
NAMED_AS_GENERAL = [
    (tf.IntertwinementSpec("trivial", 10.0),
     tf.IntertwinementSpec("general_nudge", 10.0, matrix=(0.0, 0.0, 0.0, 0.0))),
    (tf.IntertwinementSpec("mutual_sync", 10.0, theta1=0.25),
     tf.IntertwinementSpec("general_sync", 10.0, matrix=(0.25, 0.25, 0.75, 0.75))),
    (tf.IntertwinementSpec("mutual_sync", 10.0, theta1=1.0),
     tf.IntertwinementSpec("general_sync", 10.0, matrix=(1.0, 1.0, 0.0, 0.0))),
    (tf.IntertwinementSpec("degenerate_sync", 10.0),
     tf.IntertwinementSpec("general_sync", 10.0, matrix=(1.0, 0.0, 1.0, 0.0))),
    (tf.IntertwinementSpec("mutual_nudge", 10.0, mu1=50.0, mu2=25.0),
     tf.IntertwinementSpec("general_nudge", 10.0, matrix=(50.0, 50.0, 25.0, 25.0))),
    (tf.IntertwinementSpec("symmetric_nudge", 10.0, mu1=50.0, mu2=25.0),
     tf.IntertwinementSpec("general_nudge", 10.0, matrix=(25.0, 50.0, 25.0, 50.0))),
]


@pytest.fixture
def pair(grid64, rng):
    return random_psi(grid64, rng), random_psi(grid64, rng)


class TestSpecValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown coupling variant"):
            tf.IntertwinementSpec("bogus", 10.0)

    def test_symmetric_requires_mu1_ge_mu2(self):
        with pytest.raises(ValueError, match="mu1 >= mu2"):
            tf.IntertwinementSpec("symmetric_nudge", 10.0, mu1=10.0, mu2=20.0)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            tf.IntertwinementSpec("mutual_nudge", 10.0, mu1=-1.0)

    def test_general_requires_matrix(self):
        with pytest.raises(ValueError):
            tf.IntertwinementSpec("general_nudge", 10.0)

    def test_theta2_complement(self):
        spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=0.25)
        assert spec.theta1 + spec.theta2 == 1.0

    def test_cutoff_above_dealias_rejected(self, pair):
        # the stepper refuses a cutoff beyond the resolved band N/3 = 21.3
        cfg = tiny_config(resolution=64,
                          coupling=tf.IntertwinementSpec("mutual_nudge", 30.0, mu1=1.0))
        with pytest.raises(ConfigError, match="exceeds resolved band: N=30.0 > 21.3"):
            advance(tf.PairState(*pair), cfg, 1)


def low_mask(spec, grid):
    """P_N on the whole lattice: the ball |k| <= N."""
    return lattice_kmag(grid) <= spec.cutoff


def observed(spec, pair):
    """The observed modes ``P_N x`` of both systems, with ``x`` the nonlinear
    term or the state per ``spec.form``: what the stepper hands to
    ``coupling_arrays``."""
    low = low_mask(spec, pair[0].grid)
    acts_on_nonlinear, _ = spec.form
    if acts_on_nonlinear:
        return tuple(nonlinear_full(p)[low] for p in pair)
    return tuple(p.coeffs[low] for p in pair)


def couple(spec, x):
    """``coupling_arrays`` of both systems' observed modes ``x = (x1, x2)``,
    as the pair ``(c1, c2)``."""
    x = np.stack(x)
    return tuple(coupling_arrays(spec, x, np.empty_like(x)))


class TestCouplingTerms:
    def test_trivial(self, grid64, pair):
        spec = tf.IntertwinementSpec("trivial", 10.0)
        c1, c2 = couple(spec, observed(spec, pair))
        assert not np.any(c1) and not np.any(c2)

    def test_mutual_sync_vanishes_on_diagonal(self, grid64, pair):
        spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=0.7)
        c1, c2 = couple(spec, observed(spec, (pair[0], pair[0])))
        assert not np.any(c1) and not np.any(c2)

    @pytest.mark.parametrize("theta1", [0.25, 0.5, 0.75])
    def test_mutual_sync_sum_rule(self, pair, theta1):
        spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=theta1)
        c1, c2 = couple(spec, observed(spec, pair))
        resid = c1 + (theta1 / (1.0 - theta1)) * c2
        scale = np.max(np.abs(c1))
        assert np.max(np.abs(resid)) <= 1e-15 * max(scale, 1.0)

    @pytest.mark.parametrize("spec", ALL_VARIANT_SPECS, ids=lambda s: s.variant)
    def test_coupling_supported_in_ball(self, grid64, pair, spec):
        low = low_mask(spec, grid64)
        for c in couple(spec, observed(spec, pair)):
            assert c.shape == (np.count_nonzero(low),)

    def test_mutual_sync_low_mode_cancellation(self, grid64, pair):
        # rhs1 - rhs2 on |k| <= N equals the projected nonlinear difference
        low = low_mask(tf.IntertwinementSpec("mutual_sync", 10.0), grid64)
        expected = (nonlinear_full(pair[0]) - nonlinear_full(pair[1]))[low]
        for theta1 in (0.0, 0.5, 1.0):
            spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=theta1)
            c1, c2 = couple(spec, observed(spec, pair))
            assert np.array_equal(c1 - c2, expected)

    def test_degenerate_sync_equal_additions_on_diagonal(self, pair):
        spec = tf.IntertwinementSpec("degenerate_sync", 10.0)
        c1, c2 = couple(spec, observed(spec, (pair[0], pair[0])))
        assert np.array_equal(c1, c2)
        assert np.any(c1)

    def test_degenerate_sync_is_projected_own_nonlinearity(self, grid64, pair):
        spec = tf.IntertwinementSpec("degenerate_sync", 10.0)
        low = low_mask(spec, grid64)
        c1, c2 = couple(spec, observed(spec, pair))
        assert np.array_equal(c1, nonlinear_full(pair[0])[low])
        assert np.array_equal(c2, nonlinear_full(pair[1])[low])

    def test_mutual_nudge_aot_reduction(self, grid64, pair):
        spec = tf.IntertwinementSpec("mutual_nudge", 10.0, mu1=50.0, mu2=0.0)
        p1, p2 = observed(spec, pair)
        c1, c2 = couple(spec, (p1, p2))
        assert np.array_equal(c1, 50.0 * p2 - 50.0 * p1)
        assert not np.any(c2)

    def test_nudge_diagonals_vanish_or_match(self, pair):
        p = pair[0]
        for variant, kwargs in (
            ("mutual_nudge", dict(mu1=50.0, mu2=25.0)),
            ("symmetric_nudge", dict(mu1=50.0, mu2=25.0)),
        ):
            spec = tf.IntertwinementSpec(variant, 10.0, **kwargs)
            c1, c2 = couple(spec, observed(spec, (p, p)))
            assert np.array_equal(c1, c2)

    @pytest.mark.parametrize(
        "named,general", NAMED_AS_GENERAL,
        ids=["trivial", "mutual_sync", "mutual_sync_boundary", "degenerate_sync",
             "mutual_nudge", "symmetric_nudge"],
    )
    def test_named_variant_equals_general_matrix(self, pair, named, general):
        assert named.form == general.form
        x = observed(named, pair)
        for a, b in zip(couple(named, x), couple(general, x)):
            assert np.array_equal(a, b)


class TestObservedModeError:
    """A synchronization filter leaves the observed-mode error to viscosity.

    Under ``mutual_sync``, ``degenerate_sync``, or ``general_sync`` with
    ``m00 + m11 = 1`` and ``m01 + m10 = 1``, both systems' observed modes
    step under the same right-hand side, so ``err_low`` is the viscous
    decay of ``P_N w(0)``, ``w = psi1 - psi2``. Nudging, or a
    ``general_sync`` that breaks those sums, moves it. The pair is two
    independent broadband fields at 32^2, whose low-mode nonlinear terms
    are far from negligible (a spun-up 32^2 flow sits on its forced shell,
    where they vanish, and would not tell the variants apart).
    """

    COUPLINGS = {
        "mutual_sync": dict(theta1=0.25),
        "degenerate_sync": {},
        "general_sync_conforming": dict(matrix=(0.3, 0.4, 0.6, 0.7)),
        "mutual_nudge": dict(mu1=4.0, mu2=6.0),
        "general_sync": dict(matrix=(0.7, 0.3, 0.6, 0.4)),
    }

    @pytest.fixture(scope="class")
    def departures(self):
        """Largest relative departure of each coupling's ``err_low`` from
        the viscous decay of ``P_N w(0)`` over one time unit."""
        grid, rng = tf.SpectralGrid(32), np.random.default_rng(7)
        pair = [random_psi(grid, rng, decay=1.5) for _ in range(2)]
        pair = tf.PairState(*(p * (8.0 / tf.norm_hn(p, 1)) for p in pair))
        base = tiny_config(t_end=1.0, record_every=10,
                           forcing=tf.ForcingSpec(10, 12, 1e3, 3))
        cutoff = base.coupling.cutoff
        w, mask = pair.psi1.block - pair.psi2.block, low_block(grid, cutoff)
        observed, ksq = (grid.block_weights * np.abs(w) ** 2)[mask], grid.block_ksq[mask]
        found = {}
        for name, settings in self.COUPLINGS.items():
            spec = tf.IntertwinementSpec(name.removesuffix("_conforming"), cutoff, **settings)
            series, _ = run_experiment(replace(base, coupling=spec), pair)
            decay = [PARSEVAL_FACTOR * math.sqrt(float(np.sum(
                observed * np.exp(-2.0 * base.nu * ksq * r.t)))) for r in series]
            found[name] = max(abs(r.err_low - d) / d for r, d in zip(series, decay))
        return found

    @pytest.mark.parametrize("name", ["mutual_sync", "degenerate_sync",
                                      "general_sync_conforming"])
    def test_synchronization_filters_only_diffuse(self, departures, name):
        assert departures[name] <= 1e-12

    @pytest.mark.parametrize("name", ["mutual_nudge", "general_sync"])
    def test_other_couplings_move_it(self, departures, name):
        assert departures[name] > 1e-4
