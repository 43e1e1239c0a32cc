"""Semiring valuation of formulae: base cases, quantifier flavors, the
fundamental property, and the fragment monotonicity laws."""

import random
from fractions import Fraction

import pytest

from corpus import (
    UNARY_R,
    UNARY_RQ,
    random_extension_pair,
    random_hom_pair,
    random_pi1_sentence,
    random_sigma1_sentence,
)
from semlog.errors import PreconditionError
from semlog.evaluation import compile_formula, evaluate, evaluate_set, run_plan
from semlog.formulas import Atom
from semlog.interpretations import (
    Interpretation,
    check_interp_hom,
    compose_hom,
    enumerate_interpretations,
    parse_interpretation,
    random_interpretation,
)
from semlog.parser import parse
from semlog.preservation import S3_VALUES, VITERBI_GRID, entails_at
from semlog.provenance import assignment_from_interpretation, pi_n
from semlog.semirings import (
    DOUBT,
    FUZZY,
    LUKASIEWICZ,
    NAT,
    NATINF,
    S3,
    TROPICAL,
    VITERBI,
    s3_embedding,
    threshold_hom,
)

VIT_AB = """
semiring: viterbi
universe: a b
R(a) = 1/2
R(b) = 1/4
default: 0
"""


def test_viterbi_forall_example():
    pi = parse_interpretation(VIT_AB)
    assert evaluate(pi, parse("A x. R(x)")) == Fraction(1, 8)
    assert evaluate(pi.restrict([1]), parse("A x. R(x)")) == Fraction(1, 2)
    assert evaluate(pi, parse("E x. R(x)")) == Fraction(1, 2)


def test_equality_atoms_boolean_valued():
    pi = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {})
    assert evaluate(pi, parse("E x. x = x")) == 2  # 1 + 1 in the naturals
    assert evaluate(pi, Atom("R", (1,)), {}) == 0
    from semlog.formulas import Eq

    assert evaluate(pi, Eq(1, 1), {}) == 1
    assert evaluate(pi, Eq(1, 2), {}) == 0
    assert evaluate(pi, Eq(1, 2, positive=False), {}) == 1


def test_nat_sum_and_product():
    pi = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 2, ("R", (2,)): 3})
    assert evaluate(pi, parse("E x. R(x)")) == 5
    assert evaluate(pi, parse("A x. R(x)")) == 6


def test_foneq_quantifiers_exclude_visible_instantiation():
    pi = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 2, ("R", (2,)): 3})
    # E!x E!y R(y) with x visible in the body: inner sum skips x's element
    f = parse("E! x. E! y. (R(x) & R(y))")
    # x=1 -> R(1)*R(2); x=2 -> R(2)*R(1): total 12
    assert evaluate(pi, f) == 12
    # but a quantifier whose subformula does not mention x ranges over everything
    g = parse("E! x. (R(x) & E! y. R(y))")
    assert evaluate(pi, g) == 2 * 5 + 3 * 5


def test_uninstantiated_variable_raises():
    pi = Interpretation.from_atoms(NAT, (1,), UNARY_R, {})
    with pytest.raises(PreconditionError, match="uninstantiated"):
        evaluate(pi, parse("R(x) | Q(x)"))


def test_eval_set():
    pi = Interpretation.from_atoms(
        S3, (1,), UNARY_RQ, {("R", (1,)): S3.one, ("Q", (1,)): S3.EPS}
    )
    assert evaluate_set(pi, []) == S3.one
    assert evaluate_set(pi, [parse("E x. R(x)")]) == S3.one
    assert evaluate_set(pi, [parse("E x. R(x)"), parse("E x. Q(x)")]) == S3.EPS


def test_entails_at_examples():
    phi = [parse("E x. A y. R(x)")]
    psi = [parse("E x. R(x)")]
    verdict = entails_at(phi, psi, VITERBI, (1, 2), VITERBI_GRID)
    assert verdict.holds_on_sample
    refuted = entails_at([parse("E x. R(x)")], [parse("A x. R(x)")], S3, (2,), S3_VALUES)
    assert not refuted.holds_on_sample
    wit = refuted.witness
    assert not S3.leq(
        evaluate(wit, parse("E x. R(x)")), evaluate(wit, parse("A x. R(x)"))
    )
    assert entails_at(phi, phi, VITERBI, (1, 2), VITERBI_GRID).holds_on_sample


CORPUS = [
    "E x. R(x)",
    "A x. R(x)",
    "E x. A y. R(x)",
    "A x. (R(x) | ~R(x))",
    "E x. E y. (R(x) & Q(y))",
    "E x. (R(x) | Q(x))",
    "A x. E y. (R(x) | Q(y))",
]


def test_fundamental_property_threshold_homs():
    for kind in ("geq_eps", "geq_one"):
        h = threshold_hom(kind)
        for n in (1, 2):
            for pi in enumerate_interpretations(S3, UNARY_RQ, n, S3_VALUES):
                image = compose_hom(h, pi, require_model_defining=False)
                for text in CORPUS:
                    f = parse(text)
                    assert evaluate(image, f) == h(evaluate(pi, f))


def test_fundamental_property_embedding():
    e = s3_embedding(FUZZY)
    for n in (1, 2):
        for pi in enumerate_interpretations(S3, UNARY_RQ, n, S3_VALUES):
            image = compose_hom(e, pi)
            for text in CORPUS:
                f = parse(text)
                assert evaluate(image, f) == e(evaluate(pi, f))


def test_fundamental_property_specialization():
    """Specializing the canonical polynomial value equals evaluating the
    specialized interpretation."""
    from semlog.provenance import specialization_hom
    from semlog.polynomials import SPOLY

    rng = random.Random(9)
    for target, grid in ((VITERBI, VITERBI_GRID), (S3, S3_VALUES), (FUZZY, VITERBI_GRID)):
        for _ in range(10):
            n = rng.randrange(1, 3)
            concrete = random_interpretation(target, UNARY_RQ, n, grid, rng)
            pin = pi_n(UNARY_RQ, n, "absorptive")
            assignment = assignment_from_interpretation(concrete)
            h = specialization_hom(assignment, SPOLY, target)
            for text in CORPUS:
                f = parse(text)
                g = parse(text)
                assert h(evaluate(pin, f)) == evaluate(concrete, g)


DOUBT_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2))

ALL_SPECS = [
    (S3, S3_VALUES),
    (VITERBI, VITERBI_GRID),
    (LUKASIEWICZ, VITERBI_GRID),
    (DOUBT, DOUBT_GRID),
    (FUZZY, VITERBI_GRID),
    (NAT, (1, 2, 3)),
    (NATINF, (1, 2)),
    (TROPICAL, (Fraction(1), Fraction(2))),
]


@pytest.mark.parametrize("semiring,grid", ALL_SPECS, ids=lambda p: getattr(p, "id", ""))
def test_sigma1_preserved_under_extensions(semiring, grid):
    rng = random.Random(13)
    for _ in range(120):
        f = random_sigma1_sentence(rng)
        pa, pb = random_extension_pair(rng, semiring, UNARY_RQ, grid)
        assert semiring.leq(evaluate(pa, f), evaluate(pb, f)), (f, pa, pb)


@pytest.mark.parametrize(
    "semiring,grid",
    [p for p in ALL_SPECS if p[0].absorptive],
    ids=lambda p: getattr(p, "id", ""),
)
def test_pi1_preserved_under_subinterpretations(semiring, grid):
    rng = random.Random(17)
    for _ in range(120):
        f = random_pi1_sentence(rng)
        pa, pb = random_extension_pair(rng, semiring, UNARY_RQ, grid)
        assert semiring.leq(evaluate(pb, f), evaluate(pa, f)), (f, pa, pb)


@pytest.mark.parametrize("semiring,grid", ALL_SPECS, ids=lambda p: getattr(p, "id", ""))
def test_sigma1_positive_monotone_under_homomorphisms(semiring, grid):
    rng = random.Random(19)
    for _ in range(60):
        f = random_sigma1_sentence(rng, positive_only=True, with_equalities=False)
        pa, pb, g = random_hom_pair(rng, semiring, UNARY_RQ, grid)
        assert check_interp_hom(g, pa, pb) != "none"
        assert semiring.leq(evaluate(pa, f), evaluate(pb, f)), (f, pa, pb, g)


def test_memoization_handles_shared_subformulas():
    pi = parse_interpretation(VIT_AB)
    sub = parse("E x. R(x)")
    from semlog.formulas import Or

    f = Or(sub, sub)
    assert evaluate(pi, f) == Fraction(1, 2)


def test_the_last_plan_is_kept():
    pi = parse_interpretation(VIT_AB)
    f, g = parse("E x. R(x)"), parse("A x. R(x)")
    plan = compile_formula(f)
    assert compile_formula(f) is plan
    assert compile_formula(g) is compile_formula(g)
    again = compile_formula(f)
    assert again is not plan and run_plan(again, pi) == run_plan(plan, pi) == Fraction(1, 2)
    # an equal formula that is another object gets a plan of its own
    assert compile_formula(parse("E x. R(x)")) is not again
