"""nlsob: a numerical laboratory for nonlocal difference-quotient
functionals and the logarithmic Sobolev type inequalities they control."""

from .fields import (
    ComplexField,
    ConstantField,
    FiniteSumField,
    GaussianField,
    IndicatorField,
    LinearBPotential,
    LinearPhase,
    RadialProfileField,
    ScalarField,
    SmoothBumpField,
    VectorPotential,
    ZeroPotential,
    ConstantPotential,
    field_from_dict,
    grad,
    transform,
)
from .functionals import (
    EnergyParams,
    EngineSpec,
    KernelSpec,
    MonotoneEnvelope,
    default_engine,
    dirichlet_energy,
    ent_mu,
    entropy_l2,
    f_functional,
    gauss_lsi_sides,
    i_delta,
    i_delta_magnetic,
    i_delta_magnetic_paired,
    i_delta_p,
    j_delta_energy,
    j_energy,
    l2_norm_sq,
    log_moment_lp,
)
from .inequalities import (
    FamilySweep,
    InequalityReport,
    check_diamagnetic,
    check_euclidean_family,
    check_gauss_lsi,
    check_logsobolev_main,
    check_magnetic_lsi,
    check_nonlocal_sobolev,
    check_small_set_bound,
    check_envelope_lsi,
    family_constant,
    jensen_gap,
    jensen_gap_p,
    sweep_family,
)
from .limits import (
    DeltaSweep,
    QnEstimate,
    check_upper_bound,
    delta_sweep,
    estimate_qn,
    gradient_limit_constant,
    recover_classical_lsi,
)
from .quadrature import Estimate, McSpec, RadialSpec

__version__ = "0.1.0"
