import math

import pytest

from twinflow.coupling import (
    threshold_degenerate_sync,
    threshold_mutual_nudge,
    threshold_mutual_sync,
    threshold_symmetric_nudge,
)

NU = 0.005


class TestMutualSync:
    def test_interior_spot_value(self):
        assert threshold_mutual_sync(10.0, 0.5) == pytest.approx(
            15 * math.sqrt(27) * 100, rel=1e-12
        )

    def test_boundary_zero_force_corner(self):
        assert threshold_mutual_sync(0.0, 0.0, c_lad=1.0, c_agmon=1.0) == 1.0

    def test_boundary_cases_symmetric(self):
        for g in (0.0, 1.0, 10.0):
            assert threshold_mutual_sync(g, 0.0) == threshold_mutual_sync(g, 1.0)

    def test_boundary_formula(self):
        g = 10.0
        expected = max(48 * math.sqrt(3) * g**2, 1.0)
        assert threshold_mutual_sync(g, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_lambda_outside_unit_interval(self):
        with pytest.raises(ValueError):
            threshold_mutual_sync(1.0, 1.5)
        with pytest.raises(ValueError):
            threshold_mutual_sync(1.0, -0.1)

    def test_nondecreasing_in_grashof(self):
        values = [threshold_mutual_sync(g, 0.3) for g in (0.0, 0.5, 1.0, 5.0, 10.0)]
        assert values == sorted(values)


class TestDegenerateSync:
    def test_zero_force_floor(self):
        assert threshold_degenerate_sync(0.0) == 1.0

    def test_fixed_point_satisfies_both_inequalities(self):
        for g in (0.5, 1.0, 10.0):
            n = threshold_degenerate_sync(g, c_lad=1.0, c_sob=1.0)
            explicit = max(9 * math.sqrt(3), 12 * math.sqrt(2)) * g
            implicit = (
                32 * math.sqrt(2) * math.sqrt(24 * (1 + math.log(n)) * g**2 + 1) * g
            )
            assert n >= explicit * (1 - 1e-12)
            assert n >= implicit * (1 - 1e-9)

    def test_nondecreasing_in_grashof(self):
        values = [threshold_degenerate_sync(g) for g in (0.0, 1.0, 2.0, 10.0)]
        assert values == sorted(values)


class TestMutualNudge:
    def test_assisted_spot_value(self):
        n_assisted, _ = threshold_mutual_nudge(50.0, 50.0, 10.0)
        assert n_assisted == pytest.approx(4 * math.sqrt(2) * 100, rel=1e-12)

    def test_unassisted_spot_value(self):
        _, n_unassisted = threshold_mutual_nudge(50.0, 50.0, 10.0)
        assert n_unassisted == pytest.approx(1.5 * math.sqrt(2) * 10, rel=1e-12)

    def test_ratio_enters_as_square_root(self):
        base, _ = threshold_mutual_nudge(50.0, 50.0, 10.0)
        skew, _ = threshold_mutual_nudge(100.0, 25.0, 10.0)
        assert skew == pytest.approx(2 * base, rel=1e-12)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError, match="degenerate ratio"):
            threshold_mutual_nudge(50.0, 0.0, 10.0)

    def test_c_lad_is_keyword_only(self):
        # a call in the old (mu1, mu2, g, nu, c_lad) order must not read nu as c_lad
        with pytest.raises(TypeError):
            threshold_mutual_nudge(50.0, 25.0, 10.0, NU)
        assert threshold_mutual_nudge(50.0, 25.0, 10.0, c_lad=2.0)[0] == pytest.approx(
            2 * threshold_mutual_nudge(50.0, 25.0, 10.0)[0], rel=1e-12
        )

    def test_nondecreasing_in_grashof(self):
        values = [threshold_mutual_nudge(50.0, 25.0, g)[0] for g in (0.0, 1.0, 5.0)]
        assert values == sorted(values)


class TestSymmetricNudge:
    def test_n_a_spot_value(self):
        n_a, _ = threshold_symmetric_nudge(50.0, 25.0, 10.0, NU)
        assert n_a == pytest.approx(40.0, rel=1e-12)

    def test_n_b_unavailable_at_equal_strengths(self):
        n_a, n_b = threshold_symmetric_nudge(50.0, 50.0, 10.0, NU)
        assert n_a == pytest.approx(40.0, rel=1e-12)
        assert n_b is None

    def test_n_b_formula_with_zero_tilde_split(self):
        g = 10.0
        _, n_b = threshold_symmetric_nudge(50.0, 25.0, g, NU)
        expected = 4.0 * math.sqrt(NU / 25.0 * g**2)
        assert n_b == pytest.approx(expected, rel=1e-12)

    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            threshold_symmetric_nudge(25.0, 50.0, 10.0, NU)

    def test_rejects_negative_grashof(self):
        with pytest.raises(ValueError, match="nonnegative"):
            threshold_symmetric_nudge(50.0, 25.0, -1.0, NU)

    def test_nondecreasing_in_grashof(self):
        values = [
            threshold_symmetric_nudge(50.0, 25.0, g, NU)[0] for g in (1.0, 5.0, 10.0)
        ]
        assert values == sorted(values)


def test_all_thresholds_nonnegative():
    assert threshold_mutual_sync(0.0, 0.5) >= 0
    assert threshold_degenerate_sync(0.0) >= 0
    n_assisted, n_unassisted = threshold_mutual_nudge(1.0, 1.0, 0.0)
    assert n_assisted >= 0 and n_unassisted >= 0
    n_a, n_b = threshold_symmetric_nudge(1.0, 0.0, 1.0, NU)
    assert n_a >= 0 and n_b >= 0
