"""Symbolic calculus on symmetric algebras of graded Lie algebras:
Poisson brackets, extreme-leader decision procedures, and certified
reduction modulo ideal closures."""

from .algebras import (
    AlgebraSpec,
    InvalidElement,
    NotInSn,
    algebra_to_str,
    bracket_basis,
    bracket_lie,
    compare_basis,
    degree,
    element_to_str,
    elements_in_window,
    enumerate_component,
    jacobi_residual,
    order_key,
    parse_algebra,
    sn_project,
    validate_element,
)
from .elim import (
    NonTermination,
    NotReducedSequence,
    ReductionCertificate,
    full_reduce,
    is_partially_reduced,
    is_reduced,
    is_reduced_sequence,
    partial_reduce,
    verify_certificate,
)
from .leaders import (
    DegreeGapExceeded,
    MembershipReport,
    ZeroLeader,
    check_cofinite_window,
    check_dagger,
    check_leading_dicksonian,
    dickson_check,
    l_condition_holds,
    l_member,
    search_leading_dicksonian,
    verify_claimed_subset,
)
from .poly import (
    MINUS,
    PLUS,
    AlgebraMismatch,
    ConstantPolynomial,
    DTuple,
    Polynomial,
    d_leader,
    d_op,
    poisson_bracket,
)
from .textio import (
    ParseError,
    SchemaError,
    cert_from_json,
    cert_to_json,
    parse_element,
    parse_poly,
    print_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
