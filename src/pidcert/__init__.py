"""Certified PID/PD/PI regulation of uncertain non-affine nonlinear plants.

Given only derivative bounds on an unknown plant, the package constructs
controller gains from explicit open regions, builds closed-form Lyapunov
matrices with certified uniform decrease margins, and audits closed-loop
simulations against the resulting exponential envelopes.
"""

from .certificates import LyapunovCertificate, certify_margin
from .equilibrium import EquilibriumSolution, solve_equilibrium
from .errors import (
    CertificateError,
    DimensionError,
    IntegrationError,
    NumericalError,
    PidcertError,
    PlantError,
    UsageError,
)
from .gain_sets import (
    FIRST_ORDER,
    LAYOUT,
    PD,
    PI,
    PID,
    SECOND_ORDER,
    GainVector,
    MembershipReport,
    UncertaintyBounds,
    coupling_term,
    covers,
    membership,
    pi_relaxed_membership,
    suggest_gains,
)
from .planar_pi import (
    ConditionReport,
    CounterexampleReport,
    PlanarField,
    jacobian_conditions,
    necessity_counterexample,
)
from .plant_models import (
    FAMILY_IDS,
    PlantModel,
    ValidationReport,
    build_family,
    custom_plant,
    equilibrium_shift_check,
    validate_class_membership,
)
from .simulator import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    AuditReport,
    MonitorReport,
    SimConfig,
    Trajectory,
    Verdict,
    envelope_audit,
    fit_decay,
    judge,
    lyapunov_monitor,
    prepare_cell,
    simulate,
    simulate_batch,
)

__version__ = "0.1.0"
