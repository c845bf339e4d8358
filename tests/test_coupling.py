import numpy as np
import pytest

import twinflow as tf
from twinflow.coupling import IntertwiningMatrix

from conftest import random_psi

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

    def test_cutoff_above_dealias_rejected(self, grid64, rng):
        spec = tf.IntertwinementSpec("mutual_nudge", 30.0, mu1=1.0)
        p = random_psi(grid64, rng)
        with pytest.raises(ValueError, match="exceeds resolved band"):
            tf.coupling_terms(spec, p, p)


class TestCouplingTerms:
    def test_trivial(self, grid64, pair):
        c1, c2 = tf.coupling_terms(tf.IntertwinementSpec("trivial", 10.0), *pair)
        assert not np.any(c1.coeffs) and not np.any(c2.coeffs)

    def test_mutual_sync_vanishes_on_diagonal(self, grid64, pair):
        spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=0.7)
        c1, c2 = tf.coupling_terms(spec, pair[0], pair[0])
        assert not np.any(c1.coeffs) and not np.any(c2.coeffs)

    @pytest.mark.parametrize("theta1", [0.25, 0.5, 0.75])
    def test_mutual_sync_sum_rule(self, pair, theta1):
        spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=theta1)
        c1, c2 = tf.coupling_terms(spec, *pair)
        resid = c1.coeffs + (theta1 / (1.0 - theta1)) * c2.coeffs
        scale = np.max(np.abs(c1.coeffs))
        assert np.max(np.abs(resid)) <= 1e-15 * max(scale, 1.0)

    @pytest.mark.parametrize("spec", ALL_VARIANT_SPECS, ids=lambda s: s.variant)
    def test_coupling_supported_in_ball(self, grid64, pair, spec):
        for c in tf.coupling_terms(spec, *pair):
            assert not np.any(c.coeffs[grid64.kmag > 10.0])

    def test_mutual_sync_low_mode_cancellation(self, grid64, pair):
        # rhs1 - rhs2 on |k| <= N equals the projected nonlinear difference
        n1 = tf.nse_nonlinear_term(pair[0])
        n2 = tf.nse_nonlinear_term(pair[1])
        expected = tf.project_low(n1 - n2, 10.0)
        for theta1 in (0.0, 0.5, 1.0):
            spec = tf.IntertwinementSpec("mutual_sync", 10.0, theta1=theta1)
            c1, c2 = tf.coupling_terms(spec, *pair)
            assert np.array_equal(c1.coeffs - c2.coeffs, expected.coeffs)

    def test_degenerate_sync_equal_additions_on_diagonal(self, pair):
        spec = tf.IntertwinementSpec("degenerate_sync", 10.0)
        c1, c2 = tf.coupling_terms(spec, pair[0], pair[0])
        assert np.array_equal(c1.coeffs, c2.coeffs)
        assert np.any(c1.coeffs)

    def test_degenerate_sync_is_projected_own_nonlinearity(self, pair):
        spec = tf.IntertwinementSpec("degenerate_sync", 10.0)
        n1 = tf.nse_nonlinear_term(pair[0])
        n2 = tf.nse_nonlinear_term(pair[1])
        c1, c2 = tf.coupling_terms(spec, *pair)
        assert np.array_equal(c1.coeffs, tf.project_low(n1, 10.0).coeffs)
        assert np.array_equal(c2.coeffs, tf.project_low(n2, 10.0).coeffs)

    def test_mutual_nudge_aot_reduction(self, grid64, pair):
        spec = tf.IntertwinementSpec("mutual_nudge", 10.0, mu1=50.0, mu2=0.0)
        c1, c2 = tf.coupling_terms(spec, *pair)
        p1 = tf.project_low(pair[0], 10.0).coeffs
        p2 = tf.project_low(pair[1], 10.0).coeffs
        assert np.array_equal(c1.coeffs, 50.0 * p2 - 50.0 * p1)
        assert not np.any(c2.coeffs)

    def test_nudge_diagonals_vanish_or_match(self, pair):
        p = pair[0]
        for variant, kwargs in (
            ("mutual_nudge", dict(mu1=50.0, mu2=25.0)),
            ("symmetric_nudge", dict(mu1=50.0, mu2=25.0)),
        ):
            c1, c2 = tf.coupling_terms(
                tf.IntertwinementSpec(variant, 10.0, **kwargs), p, p
            )
            assert np.array_equal(c1.coeffs, c2.coeffs)

    @pytest.mark.parametrize(
        "named,general", NAMED_AS_GENERAL,
        ids=["trivial", "mutual_sync", "mutual_sync_boundary", "degenerate_sync",
             "mutual_nudge", "symmetric_nudge"],
    )
    def test_named_variant_equals_general_matrix(self, pair, named, general):
        assert named.form == general.form
        for a, b in zip(tf.coupling_terms(named, *pair), tf.coupling_terms(general, *pair)):
            assert np.array_equal(a.coeffs, b.coeffs)


class TestIntertwiningMatrix:
    @pytest.mark.parametrize(
        "mu1,mu2,expected",
        [(50.0, 50.0, (0.0, 100.0)), (50.0, 0.0, (50.0, 50.0)), (50.0, 25.0, (25.0, 75.0))],
    )
    def test_eigenvalues(self, mu1, mu2, expected):
        m = IntertwiningMatrix(mu1, mu2)
        assert m.eigenvalues() == expected
        vals = np.linalg.eigvalsh(m.entries)
        assert np.allclose(sorted(vals), sorted(expected))

    def test_symmetric_nudge_couples_through_negated_entries(self):
        spec = tf.IntertwinementSpec("symmetric_nudge", 10.0, mu1=50.0, mu2=25.0)
        _, entries = spec.form
        assert entries == tuple(-IntertwiningMatrix(50.0, 25.0).entries.ravel())

    def test_definiteness(self):
        assert IntertwiningMatrix(50.0, 25.0).is_nonnegative_definite
        assert IntertwiningMatrix(50.0, 50.0).is_nonnegative_definite
        assert not IntertwiningMatrix(25.0, 50.0).is_nonnegative_definite


class TestGrashofBundle:
    def test_rms_identity(self, grid64):
        nu = 0.005
        f1 = tf.make_band_forcing(tf.ForcingSpec(10, 12, 300.0, 1), grid64, nu)
        f2 = tf.make_band_forcing(tf.ForcingSpec(10, 12, 400.0, 2), grid64, nu)
        b = tf.GrashofBundle(f1, f2, nu)
        assert b.g_rms == pytest.approx(np.hypot(b.g1_number, b.g2_number), rel=1e-13)
        assert b.g_rms == pytest.approx(500.0, rel=1e-12)
        assert b.g_max == pytest.approx(400.0, rel=1e-12)

    def test_g_lambda_endpoints(self, grid64):
        nu = 0.005
        f1 = tf.make_band_forcing(tf.ForcingSpec(10, 12, 300.0, 1), grid64, nu)
        f2 = tf.make_band_forcing(tf.ForcingSpec(10, 12, 400.0, 2), grid64, nu)
        b = tf.GrashofBundle(f1, f2, nu)
        assert b.g_lambda(0.0) == pytest.approx(b.g1_number, rel=1e-13)
        assert b.g_lambda(1.0) == pytest.approx(b.g2_number, rel=1e-13)

    def test_tilde_quantities_default_to_plain(self, grid64):
        nu = 0.005
        f = tf.make_band_forcing(tf.ForcingSpec(10, 12, 300.0, 1), grid64, nu)
        b = tf.GrashofBundle(f, f, nu)
        assert b.tilde_g_rms == 0.0
        assert b.residual_number() == pytest.approx(b.g_rms, rel=1e-13)

    def test_residual_with_split(self, grid64):
        nu = 0.005
        f = tf.make_band_forcing(tf.ForcingSpec(10, 12, 300.0, 1), grid64, nu)
        b = tf.GrashofBundle(f, f, nu, tilde_g1=f, tilde_g2=f, mu_tilde=1.0)
        # G_res = g - mu*g_tilde = 0 when g_tilde = g and mu = 1
        assert b.residual_number() == pytest.approx(0.0, abs=1e-12)
        assert b.tilde_g_rms == pytest.approx(b.g_rms, rel=1e-13)
