"""Gain regions for PID/PD/PI control of uncertain non-affine plants.

Membership in each region is decided by exact arithmetic on the strict
inequalities that define it, without a tolerance.  All regions are open and
unbounded, and the PID region is a semi-cone (closed under scaling by any
factor >= 1).  The plant class has one test, ``UncertaintyBounds.breaches``,
with one tolerance, BOUND_SLACK, for frozen points, plant audits and
``covers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError

SECOND_ORDER = "second_order"
FIRST_ORDER = "first_order"

PID = "PID"
PD = "PD"
PI = "PI"

# state blocks of each kind in state-vector order, each with its CSV column
# prefix: i is the integral of the error, x the position, v the velocity
LAYOUT = {
    PID: {"i": "i", "x": "x1", "v": "x2"},
    PD: {"x": "x1", "v": "x2"},
    PI: {"i": "i", "x": "x"},
}

# the plant order each kind controls: a kind with a velocity block v controls
# second-order plants
ORDER = {kind: SECOND_ORDER if "v" in blocks else FIRST_ORDER for kind, blocks in LAYOUT.items()}

# the class test's tolerance: each derivative bound is met within it
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class UncertaintyBounds:
    """Derivative bounds quantifying the admissible plant class.

    For second-order plants: |df/dx1| <= L1, |df/dx2| <= L2 and
    Sym[df/du] >= b_lower * I.  First-order plants use a single state bound L
    (stored in L1; L2 is unused and kept at 0).
    """

    L1: float
    L2: float
    b_lower: float
    order: str = SECOND_ORDER

    def __post_init__(self):
        if self.order not in (SECOND_ORDER, FIRST_ORDER):
            raise UsageError(f"unknown order {self.order!r}")
        if not all(math.isfinite(v) for v in (self.L1, self.L2, self.b_lower)):
            raise UsageError("L1, L2 and b_lower must be finite")
        if not (self.b_lower > 0):
            raise UsageError("b_lower must be > 0")
        if self.L1 < 0 or self.L2 < 0:
            raise UsageError("L1 and L2 must be >= 0")
        if self.order == FIRST_ORDER and self.L2 != 0:
            raise UsageError("first-order bounds use (L, b_lower); L2 must be 0")

    @staticmethod
    def first_order(L: float, b_lower: float) -> "UncertaintyBounds":
        return UncertaintyBounds(L1=L, L2=0.0, b_lower=b_lower, order=FIRST_ORDER)

    @property
    def L(self) -> float:
        """State bound of a first-order class."""
        return self.L1

    def breaches(self, norm_a: float, norm_b: float, sym_min: float) -> list[str]:
        """The class test: a message for each bound broken by more than
        BOUND_SLACK, given |df/dx1| = ``norm_a``, |df/dx2| = ``norm_b`` (0
        if absent) and lambda_min(Sym[df/du]) = ``sym_min``."""
        broken = []
        if not norm_a <= self.L1 + BOUND_SLACK:
            broken.append(f"|a| = {norm_a:.6g} exceeds L1 = {self.L1}")
        if not norm_b <= self.L2 + BOUND_SLACK:
            broken.append(f"|b| = {norm_b:.6g} exceeds L2 = {self.L2}")
        if not sym_min >= self.b_lower - BOUND_SLACK:
            broken.append(f"lambda_min(Sym[theta]) = {sym_min:.6g} below b_lower = {self.b_lower}")
        return broken


def covers(cert_bounds: UncertaintyBounds, plant_bounds: UncertaintyBounds) -> bool:
    """True iff the class ``cert_bounds`` contains the class ``plant_bounds``:
    the same order, and bounds that pass ``cert_bounds``' class test."""
    return cert_bounds.order == plant_bounds.order and not cert_bounds.breaches(
        plant_bounds.L1, plant_bounds.L2, plant_bounds.b_lower
    )


@dataclass(frozen=True)
class GainVector:
    """Controller gains with a kind tag; unused entries stay at 0."""

    kind: str
    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self):
        if self.kind not in (PID, PD, PI):
            raise UsageError(f"unknown controller kind {self.kind!r}")
        for v in (self.kp, self.ki, self.kd):
            if not math.isfinite(v):
                raise UsageError("gains must be finite")
        # ki acts through the integral block i, kd through the velocity block v
        for name, block in (("ki", "i"), ("kd", "v")):
            value = getattr(self, name)
            if block not in LAYOUT[self.kind] and value != 0:
                raise UsageError(
                    f"{self.kind} gains have no {name!r}; it must be 0, got {value!r}"
                )

    def scaled(self, alpha: float) -> "GainVector":
        return GainVector(self.kind, alpha * self.kp, alpha * self.ki, alpha * self.kd)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a gain-region test: slack of every strict inequality."""

    member: bool
    margins: tuple[tuple[str, float], ...]
    kbar: float


def coupling_term(kp: float, kd: float, ub: UncertaintyBounds) -> float:
    """The quantity (L1 + L2)(kp + kd) / b_lower entering the inequalities."""
    return (ub.L1 + ub.L2) * (kp + kd) / ub.b_lower


def _report(margins: list[tuple[str, float]], kbar: float) -> MembershipReport:
    member = all(s > 0 for _, s in margins)
    return MembershipReport(member=member, margins=tuple(margins), kbar=kbar)


def _require_kind(g: GainVector, kind: str, op: str) -> None:
    if g.kind != kind:
        raise UsageError(f"{op} requires {kind} gains, got {g.kind}")


def _require_order(kind: str, ub: UncertaintyBounds) -> None:
    if ub.order != ORDER[kind]:
        raise UsageError(f"{kind} gains need {ORDER[kind].replace('_', '-')} bounds")


def membership(g: GainVector, ub: UncertaintyBounds) -> MembershipReport:
    """Slack of every strict inequality of the region of ``g.kind``.

    PID: kp,ki,kd > 0, kp^2 > 2 ki kd + kbar and kd^2 > kp/b + kbar.
    PD:  kp,kd > 0, kp^2 > kbar and kd^2 > kp/b + kbar.
    PI:  kp,ki > 0 and kp^2 b > kp L + ki + L^2/(4b) (first-order class).
    """
    _require_order(g.kind, ub)
    if g.kind == PI:
        L, b = ub.L, ub.b_lower
        margins = [
            ("kp_positive", g.kp),
            ("ki_positive", g.ki),
            ("quadratic", g.kp**2 * b - g.kp * L - g.ki - L**2 / (4.0 * b)),
        ]
        return _report(margins, kbar=0.0)
    kbar = coupling_term(g.kp, g.kd, ub)
    if g.kind == PID:
        margins = [
            ("kp_positive", g.kp),
            ("ki_positive", g.ki),
            ("kd_positive", g.kd),
            ("kp_sq_vs_cross", g.kp**2 - 2.0 * g.ki * g.kd - kbar),
        ]
    else:
        margins = [
            ("kp_positive", g.kp),
            ("kd_positive", g.kd),
            ("kp_sq_vs_coupling", g.kp**2 - kbar),
        ]
    margins.append(("kd_sq_vs_kp", g.kd**2 - g.kp / ub.b_lower - kbar))
    return _report(margins, kbar)


def pi_relaxed_membership(g: GainVector, ub: UncertaintyBounds) -> MembershipReport:
    """The larger scalar PI region: kp b > L and ki > 0.

    For one-dimensional plants this region is both sufficient and necessary
    for asymptotic regulation; it strictly contains the exponential-rate PI
    region of ``membership``.
    """
    _require_kind(g, PI, "pi_relaxed_membership")
    _require_order(PI, ub)
    margins = [
        ("kp_b_vs_L", g.kp * ub.b_lower - ub.L),
        ("ki_positive", g.ki),
    ]
    return _report(margins, kbar=0.0)


def suggest_gains(
    kind: str,
    ub: UncertaintyBounds,
    ki: float | None = None,
    margin: float = 0.1,
) -> GainVector:
    """Construct an interior point of the requested gain region.

    PID: kp = kd = (2 ki + (2(L1+L2)+1)/b) * (1+margin), any ki > 0.
    PD:  the PID formula at ki = 0.
    PI:  kp = 2L/b + ki/L  (L = 0 degenerates to kp = sqrt(ki/b)*(1+margin)+margin).

    The returned gains are re-checked against the membership predicate; a
    failure there is a bug, not a user error.
    """
    if margin < 0:
        raise UsageError("margin must be >= 0")
    if kind not in ORDER:
        raise UsageError(f"unknown controller kind {kind!r}")
    _require_order(kind, ub)
    ki_val = 0.0 if kind == PD else 1.0 if ki is None else float(ki)
    if kind != PD and not ki_val > 0:
        raise UsageError(f"ki must be > 0 for {kind}")
    if kind == PI:
        if ub.L > 0:
            kp = 2.0 * ub.L / ub.b_lower + ki_val / ub.L
        else:
            # the generic formula divides by L; fall back to the bare inequality
            kp = math.sqrt(ki_val / ub.b_lower) * (1.0 + margin) + margin
        g = GainVector(PI, kp=kp, ki=ki_val)
    else:
        k = (2.0 * ki_val + (2.0 * (ub.L1 + ub.L2) + 1.0) / ub.b_lower) * (1.0 + margin)
        g = GainVector(kind, kp=k, ki=ki_val, kd=k)

    report = membership(g, ub)
    if not report.member:
        raise RuntimeError(
            f"internal error: suggested {kind} gains {g} fail membership "
            f"(margins {report.margins})"
        )
    return g

