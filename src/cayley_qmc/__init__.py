"""Boundary-driven states of the Ising model with competing XY couplings on the order-2 tree.

Construction of the per-vertex interaction operators, solution of the
translation-invariant boundary fixed-point equations, state evaluation by
brute force and by recursive contraction, and the closed-form phase,
clustering and gap quantities with their numeric cross-checks.
"""

from .boundary import (
    BoundarySolution,
    Branch,
    Classification,
    PhaseRegion,
    delta_theta,
    ordered_xi,
    phase_region,
    solve_branch,
    solve_ordered,
    xy_alpha_report,
)
from .errors import (
    CayleyQmcError,
    DomainError,
    ModelInconsistencyError,
    ResourceLimitError,
    SingularParameterError,
    SolutionNotPositiveError,
)
from .model_ops import (
    ModelParams,
    OperatorCoeffs,
    TransferCoeffs,
    XYOnlyCoeffs,
    operator_coeffs,
    pauli,
    transfer_coeffs,
    transfer_coeffs_numeric,
    vertex_operator,
    vertex_operator_closed,
    xy_only_coeffs,
)
from .qmc_state import (
    EvalContext,
    Observable,
    ObservableTerm,
    compatibility_residual,
    correlation,
    eval_bruteforce,
    eval_recursive,
    eval_sparse,
    weight_matrix,
)
from .tree import ROOT, TreeCoord, ball_vertices, concat, level_vertices

__version__ = "0.1.0"

__all__ = [
    "BoundarySolution",
    "Branch",
    "CayleyQmcError",
    "Classification",
    "DomainError",
    "EvalContext",
    "ModelInconsistencyError",
    "ModelParams",
    "Observable",
    "ObservableTerm",
    "OperatorCoeffs",
    "PhaseRegion",
    "ResourceLimitError",
    "ROOT",
    "SingularParameterError",
    "SolutionNotPositiveError",
    "TransferCoeffs",
    "TreeCoord",
    "XYOnlyCoeffs",
    "ball_vertices",
    "compatibility_residual",
    "concat",
    "correlation",
    "delta_theta",
    "eval_bruteforce",
    "eval_recursive",
    "eval_sparse",
    "level_vertices",
    "operator_coeffs",
    "ordered_xi",
    "pauli",
    "phase_region",
    "solve_branch",
    "solve_ordered",
    "transfer_coeffs",
    "transfer_coeffs_numeric",
    "vertex_operator",
    "vertex_operator_closed",
    "weight_matrix",
    "xy_alpha_report",
    "xy_only_coeffs",
]
