"""Tests for the gain-region membership predicates and constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidcert import gain_sets as gs
from pidcert.errors import UsageError

UB111 = gs.UncertaintyBounds(1.0, 1.0, 1.0)
UB_PI = gs.UncertaintyBounds.first_order(1.0, 1.0)

positive = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


class TestPidMembership:
    def test_reference_member(self):
        rep = gs.membership(gs.GainVector("PID", 7, 1, 7), UB111)
        assert rep.member
        assert rep.kbar == 28.0
        assert dict(rep.margins)["kp_sq_vs_cross"] == 49.0 - 42.0
        assert dict(rep.margins)["kd_sq_vs_kp"] == 49.0 - 35.0

    def test_unit_gains_fail(self):
        rep = gs.membership(gs.GainVector("PID", 1, 1, 1), UB111)
        assert not rep.member
        assert rep.kbar == 4.0
        assert dict(rep.margins)["kp_sq_vs_cross"] < 0  # 1 > 6 fails

    def test_scaled_member_stays_member(self):
        rep = gs.membership(gs.GainVector("PID", 14, 2, 14), UB111)
        assert rep.member
        assert rep.kbar == 56.0
        assert dict(rep.margins)["kp_sq_vs_cross"] == 196.0 - 112.0
        assert dict(rep.margins)["kd_sq_vs_kp"] == 196.0 - 70.0


@pytest.mark.parametrize(
    "g,ub",
    [
        (gs.GainVector("PID", 7, 1, 7), UB_PI),
        (gs.GainVector("PD", 6, kd=6), UB_PI),
        (gs.GainVector("PI", 3, 1), UB111),
    ],
    ids=["PID", "PD", "PI"],
)
@pytest.mark.parametrize("call", ["membership", "suggest_gains"])
def test_bounds_of_the_wrong_order_rejected(g, ub, call):
    with pytest.raises(UsageError, match=f"{g.kind} gains need"):
        if call == "membership":
            gs.membership(g, ub)
        else:
            gs.suggest_gains(g.kind, ub)


class TestPdMembership:
    def test_reference_member(self):
        rep = gs.membership(gs.GainVector("PD", 6, kd=6), UB111)
        assert rep.member
        assert rep.kbar == 24.0
        assert dict(rep.margins)["kp_sq_vs_coupling"] == 12.0
        assert dict(rep.margins)["kd_sq_vs_kp"] == 6.0

    def test_small_gains_fail(self):
        rep = gs.membership(gs.GainVector("PD", 2, kd=2), UB111)
        assert not rep.member  # 4 > 8 fails

    def test_construction_boundary_excluded(self):
        # k equal to (2(L1+L2)+1)/b sits exactly on the second inequality
        k = (2 * (1.0 + 1.0) + 1.0) / 1.0
        rep = gs.membership(gs.GainVector("PD", k, kd=k), UB111)
        assert not rep.member
        assert dict(rep.margins)["kd_sq_vs_kp"] == 0.0


class TestPiMembership:
    def test_reference_member(self):
        rep = gs.membership(gs.GainVector("PI", 3, 1), UB_PI)
        assert rep.member
        assert dict(rep.margins)["quadratic"] == 9.0 - 4.25

    def test_unit_gains_fail(self):
        assert not gs.membership(gs.GainVector("PI", 1, 1), UB_PI).member

    def test_degenerate_L_zero(self):
        ub = gs.UncertaintyBounds.first_order(0.0, 1.0)
        assert gs.membership(gs.GainVector("PI", 2, 1), ub).member  # 4 > 1
        assert not gs.membership(gs.GainVector("PI", 1, 1), ub).member  # 1 > 1 fails


class TestPiRelaxedMembership:
    def test_member(self):
        assert gs.pi_relaxed_membership(gs.GainVector("PI", 2, 1), UB_PI).member

    def test_boundary_kp(self):
        assert not gs.pi_relaxed_membership(gs.GainVector("PI", 1, 1), UB_PI).member

    def test_boundary_ki(self):
        assert not gs.pi_relaxed_membership(gs.GainVector("PI", 2, 0), UB_PI).member

    @given(positive, positive, positive, positive)
    @settings(max_examples=300, deadline=None)
    def test_contains_pi_region(self, kp, ki, L, b):
        ub = gs.UncertaintyBounds.first_order(L, b)
        g = gs.GainVector("PI", kp, ki)
        if gs.membership(g, ub).member:
            assert gs.pi_relaxed_membership(g, ub).member

    def test_contains_pi_region_bulk(self):
        rng = np.random.default_rng(19)
        members = 0
        for _ in range(10_000):
            ub = gs.UncertaintyBounds.first_order(rng.uniform(0, 5), rng.uniform(0.05, 5))
            g = gs.GainVector("PI", rng.uniform(0, 20), rng.uniform(0, 10))
            if gs.membership(g, ub).member:
                members += 1
                assert gs.pi_relaxed_membership(g, ub).member
        assert members > 500  # the inclusion must actually get exercised


class TestSuggestGains:
    def test_pid_formula_zero_margin(self):
        g = gs.suggest_gains("PID", UB111, ki=1.0, margin=0.0)
        assert (g.kp, g.ki, g.kd) == (7.0, 1.0, 7.0)
        assert gs.membership(g, UB111).member

    def test_pd_formula(self):
        g = gs.suggest_gains("PD", UB111, margin=0.2)
        assert (g.kp, g.kd) == (6.0, 6.0)
        assert gs.membership(g, UB111).member

    def test_pi_formula(self):
        g = gs.suggest_gains("PI", UB_PI, ki=1.0)
        assert (g.kp, g.ki) == (3.0, 1.0)
        assert gs.membership(g, UB_PI).member

    def test_pi_zero_L_branch(self):
        ub = gs.UncertaintyBounds.first_order(0.0, 2.0)
        g = gs.suggest_gains("PI", ub, ki=1.0)
        assert gs.membership(g, ub).member

    def test_always_member_random_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ub = gs.UncertaintyBounds(
                rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(1e-3, 10)
            )
            ub1 = gs.UncertaintyBounds.first_order(rng.uniform(0, 10), rng.uniform(1e-3, 10))
            ki = rng.uniform(0.01, 5)
            assert gs.membership(gs.suggest_gains("PID", ub, ki=ki), ub).member
            assert gs.membership(gs.suggest_gains("PD", ub), ub).member
            assert gs.membership(gs.suggest_gains("PI", ub1, ki=ki), ub1).member


class TestSemiCone:
    def test_reference_scalings(self):
        g = gs.GainVector("PID", 7, 1, 7)
        for a in [1.0, 2.0, 10.0, 100.0]:
            assert gs.membership(g.scaled(a), UB111).member

    def test_identity_scaling(self):
        g = gs.suggest_gains("PID", UB111, ki=0.3)
        assert gs.membership(g.scaled(1.0), UB111).member

    def test_random_members_random_scalings(self):
        rng = np.random.default_rng(123)
        for _ in range(2000):
            ub = gs.UncertaintyBounds(
                rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0.05, 5)
            )
            g = gs.suggest_gains("PID", ub, ki=rng.uniform(0.01, 3), margin=rng.uniform(0, 1))
            for a in rng.uniform(1.0, 1e3, size=5):
                assert gs.membership(g.scaled(a), ub).member


class TestStructuralProperties:
    def test_boundary_crossing_flips_membership(self):
        """Shrinking kp until a slack crosses zero flips membership exactly
        at the sign change."""
        ub = UB111
        g = gs.suggest_gains("PID", ub, ki=1.0)
        lo, hi = 0.0, g.kp
        for _ in range(200):
            mid = (lo + hi) / 2
            cand = gs.GainVector("PID", mid, g.ki, g.kd)
            if gs.membership(cand, ub).member:
                hi = mid
            else:
                lo = mid
        at_hi = gs.membership(gs.GainVector("PID", hi, g.ki, g.kd), ub)
        at_lo = gs.membership(gs.GainVector("PID", lo, g.ki, g.kd), ub)
        assert at_hi.member and not at_lo.member
        assert min(s for _, s in at_hi.margins) >= 0.0
        assert min(s for _, s in at_lo.margins) <= 0.0

    @given(positive, positive, positive, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_class_monotonicity(self, ki, b, extra_b, dL1, dL2):
        """Growing L1/L2 or shrinking b never converts a non-member into a
        member (the coupling term is monotone)."""
        ub = gs.UncertaintyBounds(1.0 + dL1, 1.0 + dL2, b)
        g = gs.GainVector("PID", 4.0, ki, 4.0)
        harder = gs.UncertaintyBounds(
            ub.L1 + dL2, ub.L2 + dL1, b / (1.0 + extra_b)
        )
        if not gs.membership(g, ub).member:
            assert not gs.membership(g, harder).member


class TestCovers:
    """A certificate for cert_bounds applies to a plant declaring plant_bounds
    only when the plant's class lies inside the certificate's."""

    UB = gs.UncertaintyBounds(1.0, 1.0, 1.0)

    def test_same_and_tighter_bounds_covered(self):
        assert gs.covers(self.UB, self.UB)
        assert gs.covers(self.UB, gs.UncertaintyBounds(0.5, 0.0, 2.0))

    @pytest.mark.parametrize(
        "plant",
        [
            gs.UncertaintyBounds(1.5, 1.0, 1.0),
            gs.UncertaintyBounds(1.0, 1.5, 1.0),
            gs.UncertaintyBounds(1.0, 1.0, 0.5),
            gs.UncertaintyBounds(5.0, 5.0, 1.0),
        ],
    )
    def test_looser_bound_not_covered(self, plant):
        assert not gs.covers(self.UB, plant)

    def test_order_must_match(self):
        first = gs.UncertaintyBounds.first_order(L=0.5, b_lower=2.0)
        assert not gs.covers(self.UB, first)
        assert not gs.covers(first, gs.UncertaintyBounds(0.5, 0.0, 2.0))
        assert gs.covers(gs.UncertaintyBounds.first_order(L=1.0, b_lower=1.0), first)


@pytest.mark.parametrize(
    "L1,L2,b_lower",
    [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), (1.0, 1.0, float("inf"))],
)
def test_nonfinite_bounds_rejected(L1, L2, b_lower):
    """NaN passes every `< 0` test and an infinite b_lower every `> 0` test;
    either would reach the certificate as a bound."""
    with pytest.raises(UsageError, match="must be finite"):
        gs.UncertaintyBounds(L1, L2, b_lower)


@pytest.mark.parametrize(
    "kind,gains,unused",
    [
        ("PD", (7.0, 5.0, 7.0), "'ki'"),
        ("PD", (7.0, -1e-300, 7.0), "'ki'"),
        ("PI", (3.0, 1.0, 0.5), "'kd'"),
    ],
)
def test_unused_gain_must_stay_zero(kind, gains, unused):
    """A PD law has no integral term and a PI law no derivative term, so a
    nonzero gain there would be recorded without acting on anything."""
    with pytest.raises(UsageError, match=unused):
        gs.GainVector(kind, *gains)

