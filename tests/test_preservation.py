"""Preservation checks, triviality, redundancy, rewriting, S3 reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    UNARY_R,
    UNARY_RQ,
    random_foneq_formula,
    random_foneq_sentence,
    random_sigma1_sentence,
)
from semlog.errors import CarrierMismatch, GuardExceeded, PreconditionError
from semlog.evaluation import compile_formula, evaluate, evaluate_set, run_plan
from semlog.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Or,
    canonical_bound_names,
    subformulas,
)
from semlog.games import build_game_tree, classify, enumerate_strategies, eval_strategy
from semlog.interpretations import (
    Interpretation,
    count_interpretations,
    enumerate_interpretations,
    is_subinterpretation,
    random_interpretation,
)
from semlog.lattices import LatticeSemiring, chain_lattice
from semlog.parser import parse
from semlog.polynomials import collapse_exponents
from semlog.preservation import (
    S3_VALUES,
    VITERBI_GRID,
    _pi_n_valuer,
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
    verify_equivalent,
)
from semlog.provenance import pi_n
from semlog.semirings import DOUBT, LUKASIEWICZ, NAT, NATINF, S3, TROPICAL, VITERBI


def alpha_eq(f, g):
    return canonical_bound_names(f) == canonical_bound_names(g)


# -- check_preservation ------------------------------------------------------


def test_viterbi_extension_refuted_with_small_witness():
    psi = parse("E x. A y. R(x)")
    verdict = check_preservation(psi, VITERBI, "extensions", 2, VITERBI_GRID)
    assert verdict.refuted
    pa, pb, g = verdict.witness
    assert g is None
    assert len(pa.universe) == 1 and len(pb.universe) == 2
    assert is_subinterpretation(pa, pb)
    va, vb = verdict.values
    assert evaluate(pa, psi) == va and evaluate(pb, psi) == vb
    assert not VITERBI.leq(va, vb)


def test_natinf_extension_holds_on_space():
    psi = parse("E x. A y. R(x)")
    verdict = check_preservation(psi, NATINF, "extensions", 3, (1, 2))
    assert not verdict.refuted


@pytest.mark.parametrize("prop", ["extensions", "subinterpretations", "homomorphisms"])
@pytest.mark.parametrize("max_size", [1, 2])
def test_the_grid_is_checked_where_nothing_is_enumerated(prop, max_size):
    # E x. R(x) is certified for extensions at (1, 2); size 1 has no pairs
    f = parse("E x. R(x)")
    with pytest.raises(CarrierMismatch, match="^5 is not a viterbi value$"):
        check_preservation(f, VITERBI, prop, max_size, (5,))
    with pytest.raises(PreconditionError, match="^value_set must not contain 0$"):
        check_preservation(f, VITERBI, prop, max_size, (Fraction(0), Fraction(1)))


@pytest.mark.parametrize("prop", ["extensions", "subinterpretations", "homomorphisms"])
def test_an_empty_search_space_is_rejected(prop):
    f = parse("E x. R(x)")
    with pytest.raises(PreconditionError, match="^value_set must not be empty$"):
        check_preservation(f, VITERBI, prop, 2, ())
    with pytest.raises(PreconditionError, match="^max_size must be at least 1, got 0$"):
        check_preservation(f, VITERBI, prop, 0)


def test_an_empty_size_list_is_rejected():
    phi, psi = [parse("E x. R(x)")], [parse("A x. R(x)")]
    for check in (lambda: s3_entailment(phi, psi, sizes=()),
                  lambda: s3_equivalence(phi, psi, sizes=()),
                  lambda: entails_at(phi, psi, VITERBI, (), (Fraction(1),))):
        with pytest.raises(PreconditionError, match="^sizes must name at least one size$"):
            check()
    # verify_equivalent may enumerate no size: it still samples
    f, g = parse("E x. R(x)"), parse("E x. (R(x) & R(x))")
    result = verify_equivalent(f, g, VITERBI, UNARY_R, VITERBI_GRID, exhaustive_sizes=(),
                               samples=5)
    assert result.checked == 5 and "enumerated sizes ()" in result.description


def test_verify_equivalent_checks_the_grid_when_every_size_is_certified():
    f, g = parse("E x. R(x)"), parse("E x. (R(x) | R(x))")
    assert verify_equivalent(f, g, VITERBI, UNARY_R, VITERBI_GRID).certified == (1, 2, 3, 4, 5)
    with pytest.raises(PreconditionError, match="^value_set must not contain 0$"):
        verify_equivalent(f, g, VITERBI, UNARY_R, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(CarrierMismatch, match="^3 is not a viterbi value$"):
        verify_equivalent(f, g, VITERBI, UNARY_R, (3,))


def test_sigma1_never_refuted():
    rng = random.Random(47)
    for _ in range(10):
        f = random_sigma1_sentence(rng)
        verdict = check_preservation(f, S3, "extensions", 2, S3_VALUES)
        assert not verdict.refuted, f


def test_subinterpretation_property():
    # E x. R(x) grows under extensions, so it violates subint preservation
    verdict = check_preservation(parse("E x. R(x)"), S3, "subinterpretations", 2, S3_VALUES)
    assert verdict.refuted
    # A x. R(x) shrinks under extensions in a lattice
    verdict2 = check_preservation(parse("A x. R(x)"), S3, "subinterpretations", 2, S3_VALUES)
    assert not verdict2.refuted


def test_homomorphism_property():
    # positive-existential sentences survive homomorphisms
    verdict = check_preservation(parse("E x. R(x)"), S3, "homomorphisms", 2, S3_VALUES)
    assert not verdict.refuted
    # a negated atom does not
    verdict2 = check_preservation(parse("E x. ~R(x)"), S3, "homomorphisms", 2, S3_VALUES)
    assert verdict2.refuted
    pa, pb, g = verdict2.witness
    from semlog.interpretations import check_interp_hom

    assert check_interp_hom(g, pa, pb) != "none"


def test_homomorphism_search_respects_the_guard():
    # E x. R(x) is violated only towards an all-negative pb, into which no
    # element map is a homomorphism: every pair's maps are searched
    f = parse("E x. R(x)")
    assert not check_preservation(f, S3, "homomorphisms", 2, (2,), guard=8).refuted
    with pytest.raises(GuardExceeded, match="3\\^2 maps"):
        check_preservation(f, S3, "homomorphisms", 3, (2,), guard=8)


def test_homomorphism_search_values_each_interpretation_once(monkeypatch):
    """Each enumerated interpretation is valued once, not once per pair."""
    import semlog.preservation as preservation

    counts = {"enumerated": 0, "valued": 0}
    enumerate_, run = preservation.enumerate_interpretations, preservation.run_plan

    def enumerating(*args):
        for interp in enumerate_(*args):
            counts["enumerated"] += 1
            yield interp

    def valuing(plan, interp):
        counts["valued"] += 1
        return run(plan, interp)

    monkeypatch.setattr(preservation, "enumerate_interpretations", enumerating)
    monkeypatch.setattr(preservation, "run_plan", valuing)
    verdict = check_preservation(parse("E x. R(x)"), VITERBI, "homomorphisms", 2)
    assert (verdict.result, verdict.witness) == ("holds_on_search_space", None)
    # valuing each source once per target took 1,848 run_plan calls, and
    # valuing the targets again for each source size 126
    assert counts == {"enumerated": 42, "valued": 42}


# -- triviality --------------------------------------------------------------


def test_triviality_boundary_examples():
    f1 = parse("A! x. E! y. (true | R(x))")
    assert not is_trivial_at(f1, 1)
    assert is_trivial_at(f1, 2)
    assert is_eventually_trivial(f1).verdict == "trivial"
    f2 = parse("E! x. (R(x) | ~R(x))")
    for n in (1, 2, 3, 5):
        assert not is_trivial_at(f2, n)
    assert is_eventually_trivial(f2).verdict == "non_trivial"


def brute_force_trivial(formula, n):
    """Triviality over all model-defining S3 interpretations of size n for
    every distinct instantiation of the free variables."""
    from semlog.formulas import free_vars
    import itertools

    fv = sorted(free_vars(formula))
    vocab = UNARY_RQ
    for pi in enumerate_interpretations(S3, vocab, n, S3_VALUES):
        for inst in itertools.permutations(pi.universe, len(fv)):
            env = dict(zip(fv, inst))
            if evaluate(pi, formula, env) != S3.one:
                return False
    return True


@pytest.mark.parametrize(
    "text",
    [
        "A! x. E! y. (true | R(x))",
        "E! x. (R(x) | ~R(x))",
        "A! y. (R(y) | ~R(y))",
        "A! y. E! z. (R(z) | ~R(z))",
        "A! y. (true | Q(y))",
        "E! x. true",
        "A! y. R(x)",
        "A! y. (R(x) | ~R(x))",
        "E! y. (Q(x) | ~Q(x))",
        "A! y. (Q(y) | ~Q(x))",
    ],
)
def test_triviality_agrees_with_brute_force(text):
    f = parse(text)
    from semlog.formulas import free_vars

    lo = len(free_vars(f)) + 1
    for n in (1, 2, 3):
        if n < lo:
            continue
        assert is_trivial_at(f, n) == brute_force_trivial(f, n), (text, n)


def test_triviality_precondition():
    with pytest.raises(PreconditionError, match="too small"):
        is_trivial_at(parse("A! y. R(x)"), 1)
    with pytest.raises(PreconditionError):
        is_trivial_at(parse("A x. R(x)"), 2)  # wrong flavor


def test_triviality_matches_full_polynomial_evaluation():
    """The boolean recursion agrees with literally evaluating pi_n in the
    absorptive polynomial semiring and comparing against one."""
    from semlog.formulas import free_vars
    from semlog.polynomials import SPOLY
    from semlog.provenance import pi_n

    texts = [
        "A! x. E! y. (true | R(x))",
        "E! x. (R(x) | ~R(x))",
        "A! y. E! z. (R(z) | ~R(z))",
        "A! y. (true | Q(y))",
        "A! y. (R(x) | ~R(x))",
    ]
    for text in texts:
        f = parse(text)
        fv = sorted(free_vars(f))
        for n in (len(fv) + 1, len(fv) + 2):
            pin = pi_n(UNARY_RQ, n, "absorptive")
            env = {v: i + 1 for i, v in enumerate(fv)}
            direct = evaluate(pin, f, env) == SPOLY.one
            assert is_trivial_at(f, n) == direct, (text, n)
    rng = random.Random(59)
    for _ in range(60):
        f = random_foneq_formula(rng, free=("x",), constants=True)
        for n in (2, 3, 4):
            pin = pi_n(UNARY_RQ, n, "absorptive")
            direct = evaluate(pin, f, {"x": 1}) == SPOLY.one
            assert is_trivial_at(f, n) == direct, (f, n)


# -- redundancy --------------------------------------------------------------


def test_forall_redundant_in_disjunction():
    psi = parse("(A! x. R(x)) | E! x. R(x)")
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R,
        {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2)},
    )
    found, strat = has_existential_optimal(pi, psi)
    assert found and classify(strat).cls == "existential"
    assert eval_strategy(pi, strat) == evaluate(pi, psi)


def test_forall_not_redundant_in_conjunction():
    psi = parse("(A! x. R(x)) & E! x. R(x)")
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R,
        {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(3, 4)},
    )
    found, _ = has_existential_optimal(pi, psi)
    assert not found  # pi is a counterexample to redundancy


def test_almost_existential_optimal():
    psi = parse("A! y. E! z. R(z)")
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2, 3), UNARY_R,
        {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2), ("R", (3,)): Fraction(1, 2)},
    )
    ex_found, _ = has_existential_optimal(pi, psi)
    assert not ex_found
    ae_found, strat = has_almost_existential_optimal(pi, psi)
    assert ae_found and classify(strat).cls == "almost_existential"
    assert eval_strategy(pi, strat) == evaluate(pi, psi)


EXISTENTIAL_GRIDS = [
    (VITERBI, VITERBI_GRID),
    (S3, S3_VALUES),
    (TROPICAL, (Fraction(0), Fraction(1), Fraction(2))),
    (LUKASIEWICZ, (Fraction(1, 3), Fraction(2, 3), Fraction(1))),
]


def assert_existential_matches_enumeration(pi, psi):
    """has_existential_optimal against the definition: some enumerated
    strategy is existential and reaches the value."""
    target = evaluate(pi, psi)
    tree = build_game_tree(psi, pi.universe)
    oracle = any(
        eval_strategy(pi, s) == target and classify(s).cls == "existential"
        for s in enumerate_strategies(tree)
    )
    found, strat = has_existential_optimal(pi, psi)
    assert found == oracle, (psi, pi)
    if found:
        assert classify(strat).cls == "existential"
        assert eval_strategy(pi, strat) == target


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=53)
def test_has_existential_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    shapes = [
        "(A! x. R(x)) | E! x. R(x)",
        "(A! x. R(x)) & E! x. R(x)",
        "E! x. (R(x) | A! y. Q(y))",
        "A! y. E! z. R(z)",
    ]
    for text in shapes:
        psi = parse(text)
        for _ in range(8):
            n = rng.randrange(1, 3)
            pi = random_interpretation(VITERBI, UNARY_RQ, n, VITERBI_GRID, rng)
            assert_existential_matches_enumeration(pi, psi)
    sentences = [parse(text) for text in shapes] + [random_foneq_sentence(rng) for _ in range(3)]
    for psi in sentences:
        for semiring, grid in EXISTENTIAL_GRIDS:
            pi = random_interpretation(semiring, UNARY_RQ, rng.randrange(1, 4), grid, rng)
            assert_existential_matches_enumeration(pi, psi)


# -- eliminate_one_valuations ------------------------------------------------


ONE_GRIDS = {
    "viterbi": list(VITERBI_GRID),
    "lukasiewicz": list(VITERBI_GRID),
    "doubt": [Fraction(0), Fraction(1, 4), Fraction(1, 2)],
    "tropical": [Fraction(0), Fraction(1), Fraction(2)],
}


@pytest.mark.parametrize(
    "semiring", [VITERBI, LUKASIEWICZ, DOUBT, TROPICAL], ids=lambda s: s.id
)
def test_eliminate_one_valuations_refines_preorder(semiring):
    rng = random.Random(59)
    psi = parse("E! x. (R(x) | A! y. R(y))")
    grid_with_one = ONE_GRIDS[semiring.id]
    for _ in range(50):
        n = rng.randrange(1, 4)
        pi = random_interpretation(semiring, UNARY_R, n, grid_with_one, rng)
        if evaluate(pi, psi) == semiring.zero:
            continue
        star = eliminate_one_valuations(pi, psi)
        for pos, neg in star.table.values():
            assert pos != semiring.one and neg != semiring.one
        assert evaluate(star, psi) != semiring.zero
        tree = build_game_tree(psi, pi.universe)
        strategies = list(enumerate_strategies(tree))
        # strict strategy inequalities survive: the star preorder is contained
        # in the original one
        for s1 in strategies:
            for s2 in strategies:
                a1, a2 = eval_strategy(pi, s1), eval_strategy(pi, s2)
                b1, b2 = eval_strategy(star, s1), eval_strategy(star, s2)
                if semiring.lt(a1, a2):
                    assert semiring.lt(b1, b2), (pi, star)
                if semiring.leq(b1, b2):
                    assert semiring.leq(a1, a2), (pi, star)
        # argmax refinement: optimal strategies of star are optimal for pi
        vstar = evaluate(star, psi)
        vpi = evaluate(pi, psi)
        for s in strategies:
            if eval_strategy(star, s) == vstar:
                assert eval_strategy(pi, s) == vpi


def test_eliminate_one_valuations_identity_when_one_free():
    pi = Interpretation.from_atoms(
        VITERBI, (1,), UNARY_R, {("R", (1,)): Fraction(1, 2)}
    )
    assert eliminate_one_valuations(pi, parse("E! x. R(x)")) is pi


def test_eliminate_one_valuations_requires_nonzero():
    pi = Interpretation.from_atoms(VITERBI, (1,), UNARY_R, {})
    with pytest.raises(PreconditionError, match="zero"):
        eliminate_one_valuations(pi, parse("E! x. R(x)"))


# -- shrink_counterexample ---------------------------------------------------


def _uniform_interp(value, k):
    return Interpretation.from_atoms(
        VITERBI, tuple(range(1, k + 1)), UNARY_R,
        {("R", (i,)): value for i in range(1, k + 1)},
    )


def test_shrink_counterexample_produces_strict_violation():
    from semlog.games import strategy_from_choices
    from semlog.preservation import shrink_counterexample

    psi = parse("E! x. A! y. R(x)")
    k = 22  # = 2 * (2^|psi| + qr + 1)
    pi = _uniform_interp(Fraction(1, 2), k)
    tree = build_game_tree(psi, k)
    strat = strategy_from_choices(tree.root, lambda node: 0)
    rep = shrink_counterexample(pi, strat, psi)
    assert len(rep.small.universe) == k - 1
    assert is_subinterpretation(rep.small, pi)
    assert VITERBI.lt(rep.original_value, rep.small_value)
    # the pair itself certifies the refutation
    assert not VITERBI.leq(evaluate(rep.small, psi), evaluate(pi, psi))


def test_shrink_counterexample_rejects_one_valued_branches():
    from semlog.games import strategy_from_choices
    from semlog.preservation import shrink_counterexample

    psi = parse("E! x. A! y. R(x)")
    pi = _uniform_interp(Fraction(1), 22)
    tree = build_game_tree(psi, 22)
    strat = strategy_from_choices(tree.root, lambda node: 0)
    with pytest.raises(PreconditionError, match="valued differently from one"):
        shrink_counterexample(pi, strat, psi)


def test_shrink_counterexample_size_guard():
    from semlog.games import strategy_from_choices
    from semlog.preservation import shrink_counterexample

    psi = parse("E! x. A! y. R(x)")
    pi = _uniform_interp(Fraction(1, 2), 6)
    tree = build_game_tree(psi, 6)
    strat = strategy_from_choices(tree.root, lambda node: 0)
    with pytest.raises(PreconditionError, match="below the bound"):
        shrink_counterexample(pi, strat, psi)


# -- rewriting: strict -------------------------------------------------------


def test_rewrite_strict_redundant_disjunction():
    report = rewrite_sigma1_strict(parse("(A! x. R(x)) | E! x. R(x)"))
    assert report.ok
    assert not any(isinstance(g, Forall) for g in subformulas(report.output))
    assert alpha_eq(report.output, parse("E x. R(x)"))
    assert report.substitutions[0]["verdict"] == "non_trivial"


def test_rewrite_strict_sigma1_unchanged():
    report = rewrite_sigma1_strict(parse("E x. R(x)"))
    assert report.ok
    assert alpha_eq(report.output, parse("E x. R(x)"))
    assert report.substitutions == []


def test_rewrite_strict_gate_failure():
    report = rewrite_sigma1_strict(parse("E x. A y. R(x)"))
    assert report.gate.refuted
    assert report.output is None and not report.ok
    pa, pb, _ = report.gate.witness
    assert not VITERBI.leq(evaluate(pa, parse("E x. A y. R(x)")), evaluate(pb, parse("E x. A y. R(x)")))


def test_rewrite_strict_trivial_universal():
    # A y. (E z. (true | R(z))) is eventually trivial
    report = rewrite_sigma1_strict(parse("(A! y. E! z. (true | R(y))) | E! x. R(x)"))
    assert report.ok
    verdicts = {s["verdict"] for s in report.substitutions}
    assert "trivial" in verdicts


def test_rewrite_strict_lukasiewicz():
    report = rewrite_sigma1_strict(parse("(A! x. R(x)) | E! x. R(x)"), LUKASIEWICZ)
    assert report.ok
    assert alpha_eq(report.output, parse("E x. R(x)"))


# -- rewriting: lattice ------------------------------------------------------


def test_rewrite_lattice_worked_examples():
    r1 = rewrite_sigma1_lattice(parse("A y. E z. R(z)"))
    assert r1.ok and alpha_eq(r1.output, parse("E z. R(z)"))
    r2 = rewrite_sigma1_lattice(parse("A y. ((E z. R(z)) | E z. (R(z) & Q(y)))"))
    assert r2.ok and alpha_eq(r2.output, parse("E z. R(z)"))


def test_rewrite_lattice_prints_one_verify_line_per_semiring():
    lines = rewrite_sigma1_lattice(parse("A y. E z. R(z)")).summary().splitlines()
    assert lines[-2:] == [
        "verify: verified (over s3: certified by pi_n at sizes (1, 2, 3, 4); "
        "enumerated sizes (); sampled sizes (); interpretations checked: 0)",
        "verify: verified (over fuzzy: certified by pi_n at sizes (1, 2, 3, 4); "
        "enumerated sizes (); sampled sizes (); interpretations checked: 0)",
    ]


def test_rewrite_lattice_sigma1_unchanged():
    r = rewrite_sigma1_lattice(parse("E x. R(x)"))
    assert r.ok and alpha_eq(r.output, parse("E x. R(x)"))


def test_rewrite_lattice_gate_failure():
    r = rewrite_sigma1_lattice(parse("A x. (R(x) | ~R(x))"))
    assert r.gate.refuted and r.output is None


def test_rewrite_outputs_are_forall_free_and_verified():
    cases = [
        "(A! x. R(x)) | E! x. R(x)",
        "E x. (R(x) & Q(x))",
        "E x. E y. (R(x) | Q(y))",
    ]
    for text in cases:
        rep = rewrite_sigma1_strict(parse(text))
        assert rep.ok, text
        assert not any(isinstance(g, Forall) for g in subformulas(rep.output))
        assert rep.verification.ok


# -- S3 entailment / equivalence ---------------------------------------------


def test_s3_entailment_boolean_tautology_gap():
    phi = [parse("E x. x = x")]
    psi = [parse("E x. (R(x) | ~R(x))")]
    verdict = s3_entailment(phi, psi, sizes=(1,))
    assert not verdict.consistent
    wit = verdict.witness
    assert evaluate_set(wit, phi) == S3.one
    assert evaluate_set(wit, psi) != S3.one
    # and reflexivity
    assert s3_entailment(psi, psi, sizes=(1, 2)).consistent


def test_s3_equivalence_flatten():
    from semlog.formulas import Or, flatten_sigma1

    f = Or(parse("E x. R(x)"), parse("E y. Q(y)"))
    g = flatten_sigma1(f)
    assert s3_equivalence([f], [g], sizes=(1, 2, 3)).consistent


# -- lifting -----------------------------------------------------------------


def test_lift_4chain_counterexample_to_s3():
    lat = chain_lattice(["0", "a", "b", "1"])
    sr = LatticeSemiring(lat)
    psi = parse("A x. (R(x) | ~R(x))")
    pa = Interpretation.from_atoms(sr, (1,), UNARY_R, {("R", (1,)): "1"})
    pb = Interpretation.from_atoms(sr, (1, 2), UNARY_R, {("R", (1,)): "1", ("R", (2,)): "a"})
    assert not sr.leq(evaluate(pa, psi), evaluate(pb, psi))
    qa, qb = lift_counterexample_to_s3(lat, pa, pb, [psi])
    assert qa.semiring is S3 and qb.semiring is S3
    assert is_subinterpretation(qa, qb)
    wa, wb = evaluate(qa, psi), evaluate(qb, psi)
    assert S3.lt(wb, wa)
    # the lifted pair re-validates as refuted through the checker's predicate
    assert not S3.leq(wa, wb)
    assert qa.is_model_defining() and qb.is_model_defining()


def test_lift_rejects_boolean_style_input():
    lat = chain_lattice(["0", "1"])
    sr = LatticeSemiring(lat)
    psi = parse("A x. (R(x) | ~R(x))")
    pa = Interpretation.from_atoms(sr, (1,), UNARY_R, {("R", (1,)): "1"})
    pb = Interpretation.from_atoms(sr, (1, 2), UNARY_R, {("R", (1,)): "1", ("R", (2,)): "1"})
    with pytest.raises(PreconditionError):
        lift_counterexample_to_s3(lat, pa, pb, [psi])


def test_eventual_triviality_probes_up_to_free_variables_plus_rank_plus_one():
    f = parse("A! y. R(y) | Q(x)")  # |fv| = 1, qr = 1
    verdict = is_eventually_trivial(f)
    assert verdict.probes == ((2, False), (3, False))
    assert verdict.threshold == 3 and verdict.verdict == "non_trivial"
    g = parse("A! y. E! z. (Q(y) | true)")  # E! z. has no witness while n <= 1
    verdict = is_eventually_trivial(g)
    assert verdict.probes == ((1, False), (2, True), (3, True))
    assert verdict.threshold == 3 and verdict.verdict == "trivial"
    h = parse("A! x. A! y. (R(x) & Q(y))")  # A! y. is vacuous while n <= 1
    verdict = is_eventually_trivial(h)
    assert verdict.probes == ((1, True), (2, False), (3, False))
    assert verdict.threshold == 3 and verdict.verdict == "non_trivial"


# -- verification by pi_n certificates ---------------------------------------

# Each semiring with a grid free of its zero.  All are absorptive; only S3
# multiplies idempotently, so only S3 compares collapsed polynomials.
CERTIFIED_SEMIRINGS = [
    (VITERBI, VITERBI_GRID),
    (LUKASIEWICZ, (Fraction(1, 2), Fraction(3, 4), Fraction(1))),
    (TROPICAL, (Fraction(0), Fraction(1, 2), Fraction(1))),
    (DOUBT, (Fraction(0), Fraction(1, 4), Fraction(1, 2))),
    (S3, S3_VALUES),
]

# How a pair of sentences is built from random sentences f, h, k, and
# whether it is an identity of every absorptive semiring (True), of those
# with idempotent multiplication ("idempotent"), or of neither (None).
_CONTRADICTION = Exists("c", And(Atom("R", ("c",)), Atom("R", ("c",), False)))
PAIR_KINDS = {
    "or_self": (lambda f, h, k: (f, Or(f, f)), True),
    "absorb": (lambda f, h, k: (f, Or(f, And(f, h))), True),
    "distribute": (lambda f, h, k: (And(f, Or(h, k)), Or(And(f, h), And(f, k))), True),
    "contradiction": (lambda f, h, k: (f, Or(f, _CONTRADICTION)), True),
    "and_self": (lambda f, h, k: (f, And(f, f)), "idempotent"),
    "dual": (lambda f, h, k: (f, _dual(f)), None),
    "other": (lambda f, h, k: (f, h), None),
}


def _dual(f):
    """f with the polarity of every literal flipped."""
    if isinstance(f, Atom):
        return Atom(f.rel, f.args, not f.positive)
    if isinstance(f, (And, Or)):
        return type(f)(_dual(f.left), _dual(f.right))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _dual(f.body), distinct=f.distinct)
    return f


def _first_difference(fp, gp, semiring, n, grid):
    for interp in enumerate_interpretations(semiring, UNARY_R, n, grid):
        if run_plan(fp, interp) != run_plan(gp, interp):
            return interp
    return None


@pytest.mark.parametrize("semiring, grid", CERTIFIED_SEMIRINGS, ids=lambda v: getattr(v, "id", ""))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(PAIR_KINDS)))
def test_pi_n_certificate_agrees_with_enumeration(semiring, grid, seed, kind):
    """Whenever pi_n calls a size equal, no interpretation of that size over
    the grid tells the two sentences apart; over S3 this holds for the raw
    polynomials and for the collapsed ones.  Pairs that are identities of
    the semiring's class are always certified."""
    rng = random.Random(seed)
    build, identity = PAIR_KINDS[kind]
    f, g = build(*(random_foneq_sentence(rng, UNARY_R, max_qr=2) for _ in range(3)))
    fp, gp = compile_formula(f), compile_formula(g)
    values_on_pi = _pi_n_valuer(semiring, UNARY_R, (f, g), (fp, gp))
    for n in (1, 2, 3):
        certified = values_on_pi(n)[0] == values_on_pi(n)[1]
        claims = [certified]
        if semiring.multiplicatively_idempotent:
            pi = pi_n(UNARY_R, n)
            raw = run_plan(fp, pi) == run_plan(gp, pi)
            assert not raw or certified
            claims.append(raw)
        if any(claims):
            witness = _first_difference(fp, gp, semiring, n, grid)
            assert witness is None, (f, g, n, witness)
        if identity is True or (identity == "idempotent" and semiring.multiplicatively_idempotent):
            assert certified, (f, g, n)


def test_collapse_is_not_applied_without_idempotent_multiplication():
    f, g = parse("E x. R(x)"), parse("E x. (R(x) & R(x))")
    failed = verify_equivalent(f, g, VITERBI, UNARY_R, VITERBI_GRID)
    assert not failed.ok and failed.certified == ()
    assert evaluate(failed.witness, f) != evaluate(failed.witness, g)
    lattice = verify_equivalent(f, g, S3, UNARY_R, S3_VALUES, max_sample_size=4)
    assert lattice.ok and lattice.checked == 0 and lattice.certified == (1, 2, 3, 4)


def test_collapse_exponents_rounds_exponents_down_and_prunes():
    pi = pi_n(UNARY_R, 2)
    p = evaluate(pi, parse("(E x. (R(x) & R(x))) | A x. R(x)"))
    assert repr(p) == "x[R(1)]*x[R(2)] + x[R(1)]^2 + x[R(2)]^2"
    assert repr(collapse_exponents(p)) == "x[R(1)] + x[R(2)]"


def test_verify_equivalent_certifies_without_interpretations():
    f, g = parse("E x. (R(x) & Q(x))"), parse("E y. (Q(y) & R(y))")
    result = verify_equivalent(f, g, LUKASIEWICZ, UNARY_RQ, VITERBI_GRID)
    assert result.ok and result.witness is None
    assert result.checked == 0 and result.certified == (1, 2, 3, 4, 5)
    assert result.description == (
        "over lukasiewicz: certified by pi_n at sizes (1, 2, 3, 4, 5); enumerated sizes (); "
        "sampled sizes (); interpretations checked: 0"
    )


def test_verify_equivalent_refutes_with_a_concrete_witness():
    f, g = parse("E x. R(x)"), parse("A x. R(x)")  # equal on one element only
    result = verify_equivalent(f, g, VITERBI, UNARY_R, VITERBI_GRID)
    assert not result.ok and result.certified == (1,)
    assert len(result.witness.universe) == 2 and result.checked >= 1
    assert evaluate(result.witness, f) != evaluate(result.witness, g)


def test_verify_equivalent_certifies_nothing_for_relations_outside_the_vocabulary():
    f, g = parse("A x. ~S(x)"), parse("A x. (R(x) & ~R(x))")  # both 0 on pi_n over R
    result = verify_equivalent(f, g, VITERBI, UNARY_R, VITERBI_GRID)
    assert not result.ok and result.certified == ()
    assert evaluate(result.witness, f) != evaluate(result.witness, g)


def test_verify_equivalent_enumerates_over_non_absorptive_semirings():
    f, g = parse("E x. (R(x) & Q(x))"), parse("E y. (Q(y) & R(y))")
    grid = (1, 2)
    result = verify_equivalent(f, g, NAT, UNARY_RQ, grid, exhaustive_sizes=(1, 2),
                               samples=50, max_sample_size=3)
    assert result.ok and result.certified == ()
    expected = sum(count_interpretations(UNARY_RQ, n, grid) for n in (1, 2)) + 50
    assert result.checked == expected
    assert result.description == (
        "over nat: certified by pi_n at sizes (); enumerated sizes (1, 2); "
        f"sampled sizes (1, 2, 3); interpretations checked: {expected}"
    )
    doubled = verify_equivalent(parse("E x. R(x)"), parse("E x. (R(x) | R(x))"), NAT,
                                UNARY_R, grid)
    assert not doubled.ok and doubled.checked == 1
