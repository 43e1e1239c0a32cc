"""Semiring semantics for first-order logic.

Exact evaluation of FO and FO-distinct sentences over pluggable commutative
semirings, model-checking-game strategy analysis, provenance polynomials,
preservation-property checking on finite interpretations, and rewriting
pipelines that eliminate universal quantifiers from extension-preserved
sentences.
"""

from .errors import (
    CarrierMismatch,
    GuardExceeded,
    NotModelDefining,
    PreconditionError,
    SemlogError,
)
from .semirings import (
    BOOLEAN,
    DOUBT,
    FUZZY,
    INF,
    LUKASIEWICZ,
    NAT,
    NATINF,
    S3,
    TROPICAL,
    VITERBI,
    ChainSemiring,
    Semiring,
    SemiringHom,
    check_hom,
    s3_embedding,
    semiring_from_id,
    threshold_hom,
)
from .lattices import (
    FiniteLattice,
    LatticeSemiring,
    adjoin_bottom,
    chain_lattice,
    diamond_lattice,
    find_weakly_separating_hom,
)
from .polynomials import (
    NATPOLY,
    SPOLY,
    AbsorptivePoly,
    Monomial,
    NatPoly,
    absorbs,
    lit_var,
    specialize,
)
from .formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaMetrics,
    Or,
    existential_prenex_dnf,
    flatten_sigma1,
    fo_to_foneq,
    foneq_to_fo,
    free_vars,
    metrics,
    psi_n,
    substitute_subformula,
)
from .parser import ParseError, parse, render
from .interpretations import (
    Interpretation,
    Vocabulary,
    check_interp_hom,
    compose_hom,
    enumerate_interpretations,
    is_subinterpretation,
    load_interpretation,
    parse_interpretation,
    random_interpretation,
)
from .evaluation import evaluate, evaluate_set
from .games import (
    Strategy,
    build_game_tree,
    c_constants,
    classify,
    compact_almost_existential,
    count_strategies,
    enumerate_strategies,
    eval_strategy,
    optimal,
    sum_of_strategies_check,
    swap_instantiation,
    translate_almost_existential,
    translate_strategy,
    validate_strategy,
)
from .provenance import pi_n
from .preservation import (
    PreservationVerdict,
    RewriteReport,
    check_preservation,
    eliminate_one_valuations,
    entails_at,
    has_almost_existential_optimal,
    has_existential_optimal,
    is_eventually_trivial,
    is_trivial_at,
    lift_counterexample_to_s3,
    rewrite_sigma1_lattice,
    rewrite_sigma1_strict,
    s3_entailment,
    s3_equivalence,
    shrink_counterexample,
)

__version__ = "0.1.0"
