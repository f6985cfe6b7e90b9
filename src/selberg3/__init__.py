"""Numerical verification of Selberg-type integral and series identities.

The package evaluates both sides of a family of gamma-product identities:
closed product forms on one side; lattice-cone series, chain-decomposed
singular quadrature, and a linear recursion system on the other.
"""

from .closed_forms import (
    aomoto_rhs,
    discrete_exp_rhs,
    exp_selberg_rhs,
    j_closed_form,
    selberg_rhs,
    sl3_discrete_rhs,
    sl3_exp_rhs,
    sl3_selberg0_rhs,
    sl3_selberg_rhs,
)
from .errors import (
    DegenerateError,
    DomainError,
    InadmissibleTripleError,
    InconsistentSystemError,
    IntegrandSingularError,
    InvalidParamsError,
    LimitDisagreementError,
    NearSingularError,
    NotConvergedError,
    PivotZeroError,
    PoleError,
    Selberg3Error,
)
from .identities import Budget, VerificationRecord, identity_ids, run_grid, run_identity
from .integrands import LatticePoint, f_limit, is_admissible
from .lattice import SeriesResult, sum_discrete
from .logreal import LogSigned, gamma_ratio, log_gamma_signed, sin_ratio
from .params import ParamSet
from .quadrature import QuadSpec, integrate_chain, integrate_domain, integrate_family
from .recursions import (
    JTable,
    solve_both,
    solve_j,
    verify_relations,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "DegenerateError",
    "DomainError",
    "InadmissibleTripleError",
    "InconsistentSystemError",
    "IntegrandSingularError",
    "InvalidParamsError",
    "JTable",
    "LatticePoint",
    "LimitDisagreementError",
    "LogSigned",
    "NearSingularError",
    "NotConvergedError",
    "ParamSet",
    "PivotZeroError",
    "PoleError",
    "QuadSpec",
    "Selberg3Error",
    "SeriesResult",
    "VerificationRecord",
    "aomoto_rhs",
    "discrete_exp_rhs",
    "exp_selberg_rhs",
    "f_limit",
    "gamma_ratio",
    "identity_ids",
    "integrate_chain",
    "integrate_domain",
    "integrate_family",
    "is_admissible",
    "j_closed_form",
    "log_gamma_signed",
    "run_grid",
    "run_identity",
    "selberg_rhs",
    "sin_ratio",
    "sl3_discrete_rhs",
    "sl3_exp_rhs",
    "sl3_selberg0_rhs",
    "sl3_selberg_rhs",
    "solve_both",
    "solve_j",
    "sum_discrete",
    "verify_relations",
]
