"""Painleve IV through its regular third-order form, with companion equations.

The second-order equation divides by w; multiplying through by 2w and
differentiating produces a third-order form that is polynomial in every
variable and hence integrable straight through zeros of w.  Membership in
the original equation's solution set is tracked by the conserved constraint
functional C, which vanishes exactly on consistent jets.
"""

from .equations import (
    EquationKind,
    Jet3,
    Params,
    Scalar,
    ScalarField,
    constraint_c,
    jet_identities,
    residual2,
    rhs3,
)
from .errors import (
    DiscriminantViolation,
    InvalidInitialData,
    MultipleZeros,
    NegativeW,
    OutOfSpan,
    PainleveError,
    SingularInput,
    WrongKind,
)
from .integrator import (
    InitialData,
    Tolerances,
    Trajectory,
    TrajectoryNode,
    TrajectoryStatus,
    complete_initial_data,
    dense_eval,
    dense_eval_param,
    integrate,
)
from .oracles import (
    QuadraticSolution,
    SqrtLiftResult,
    SqrtSample,
    XXIXIntegrals,
    eval_quadratic,
    fit_quadratic,
    sqrt_lift,
    square_push,
    xxix_integrals,
    xxix_pole_family,
    xxxii_u_integral,
)
from .verify import PropertyResult, run_suite
from .zeros import (
    CurvatureReport,
    ZeroBranch,
    ZeroEvent,
    check_curvature_theorem,
    locate_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "EquationKind",
    "Jet3",
    "Params",
    "Scalar",
    "ScalarField",
    "constraint_c",
    "jet_identities",
    "residual2",
    "rhs3",
    "PainleveError",
    "SingularInput",
    "InvalidInitialData",
    "OutOfSpan",
    "DiscriminantViolation",
    "NegativeW",
    "MultipleZeros",
    "WrongKind",
    "InitialData",
    "Tolerances",
    "Trajectory",
    "TrajectoryNode",
    "TrajectoryStatus",
    "complete_initial_data",
    "dense_eval",
    "dense_eval_param",
    "integrate",
    "QuadraticSolution",
    "XXIXIntegrals",
    "SqrtLiftResult",
    "SqrtSample",
    "eval_quadratic",
    "fit_quadratic",
    "sqrt_lift",
    "square_push",
    "xxix_integrals",
    "xxix_pole_family",
    "xxxii_u_integral",
    "PropertyResult",
    "run_suite",
    "ZeroBranch",
    "ZeroEvent",
    "CurvatureReport",
    "check_curvature_theorem",
    "locate_zeros",
    "__version__",
]
