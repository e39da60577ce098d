"""Exact computer algebra for translation-invariant subspaces of C[x, y].

The library works with bivariate polynomials in coordinate form
F = sum_n f_n(x) y^n / n!, where closure under both partial derivatives
makes a subspace translation invariant. Around that core it provides:

* recursion-table modules (each coordinate produced from the previous
  window by a fixed linear differential operator) and their generation,
  membership, and inference problems
* degree-truncation modules, finitely generated derivative closures, and
  sums of these, with certificate-producing membership probes
* shift-chain decompositions of nilpotent matrices
* a certified log-space replay of the convergence bound showing the
  recursion module with doubly-exponential coefficients is not closed
"""

from .cancel import CancelToken
from .errors import (
    ArityMismatch,
    Cancelled,
    NotAnLModule,
    NotNilpotent,
    ParseError,
    PolymodError,
    RangeExceeded,
    ThresholdUnmet,
    Underdetermined,
    UnsupportedExpr,
)
from .gamma import (
    GammaTable,
    apply_L,
    dilated_shift_table,
    generate,
    mgamma_contains,
    shift_invariance_table,
)
from .lognum import (
    MODE_UPPER,
    SLACK_LOG,
    TOWER_CAP,
    LogNum,
    e_tower_log,
    log_add,
    log_mul,
    log_pow,
)
from .modules import (
    FiniteGen,
    Md,
    MGamma,
    MembershipResult,
    Sum,
    VSpaceBasis,
    contains,
    default_deg_bound,
    derivative_closure,
    phi,
    v_space,
)
from .nonclosed import (
    CONDITION_MARGIN,
    BoundReport,
    coeff_norm_chain,
    poly_membership,
    side_conditions,
    sup_bound,
    surrogate_bridge,
    verify_e14,
    witness_x_not_in_M,
)
from .operators import (
    ChainDecomposition,
    SumOrderReport,
    canonical_split,
    infer_L,
    nilpotent_chains,
    order_of_module,
    order_of_sum_report,
    quotient_derivation,
)
from .poly import BiPoly, UniPoly
from .scalars import CoeffQ

__version__ = "0.1.0"
