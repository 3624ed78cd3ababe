"""Decentralized secure aggregation with symmetric groupwise keys.

Exact tooling for the K-user broadcast-sum problem: the optimal rate region,
a linear masking scheme that attains it, an information-theoretic auditor
that certifies recovery and collusion resilience by exact rank calculus, and
a brute-force enumeration oracle that re-derives the same quantities by
counting.
"""

from .gf import FieldMismatchError, PrimeField, is_prime
from .linalg import DimensionMismatchError, Matrix, random_matrix
from .scheme import (
    ConstructionFailedError,
    GroupKeySet,
    GroupSizeReport,
    InfeasibilityReason,
    InfeasibleSchemeError,
    ParamsOutOfModelError,
    Precoder,
    RateRegion,
    SchemeFormatError,
    SchemeParams,
    build_precoder,
    capacity,
    encode,
    fixture_example1,
    fixture_example2,
    load_scheme,
    optimal_group_size_report,
    random_precoder,
    recover,
    reference_precoder,
    sample_keys,
    save_scheme,
    scheme_from_text,
    scheme_to_text,
)
from .infocalc import (
    BudgetExceededError,
    LayoutMismatchError,
    LinearObservable,
    NonPowerOfQSupportError,
    SourceLayout,
    brute_force_entropy,
    brute_force_mi,
    conditional_entropy,
    entropy,
    layout_for,
    mutual_information,
    observe_input,
    observe_key_bundle,
    observe_message,
    observe_total,
)
from .auditor import (
    AuditContext,
    AuditReport,
    InvalidCollusionSetError,
    RankCheck,
    audit,
    audit_converse,
    audit_recovery,
    audit_rates,
    audit_security,
    collusion_sets,
    expected_check_count,
    rank_certificate_ok,
    rank_condition,
    submatrix_hhat,
)
from .sim import Transcript, make_inputs, run_round

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
