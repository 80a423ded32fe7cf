"""Certified PID/PD/PI regulation of uncertain non-affine nonlinear plants.

Given only derivative bounds on an unknown plant, the package constructs
controller gains from explicit open regions, builds closed-form Lyapunov
matrices with certified uniform decrease margins, and audits closed-loop
simulations against the resulting exponential envelopes.
"""

from .certificates import (
    FrozenUncertainty,
    LyapunovCertificate,
    QReport,
    assemble_A,
    build_P,
    certify_margin,
    pd_closed_form_margin,
    pi_closed_form_margin,
    q_report,
    sample_frozen_uncertainty,
)
from .equilibrium import EquilibriumSolution, monotonicity_probe, solve_equilibrium
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
    semi_cone_check,
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
    envelope_audit,
    fit_decay,
    lyapunov_monitor,
    prepare_cell,
    simulate,
    simulate_batch,
)

__version__ = "0.1.0"
