"""Extension and subinterpretation checks certified on pi_n, against the
frozen exhaustive search (reference_preservation.py): on random
constant-free sentences both return the same verdict, witness, values and
search space, and a size pair whose pi_n values are ordered holds no
violation on any interpretation of the grid."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_preservation as ref
from corpus import UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog.errors import PreconditionError
from semlog.evaluation import compile_formula, run_plan
from semlog.formulas import Atom, Exists, Or
from semlog.interpretations import Vocabulary, enumerate_interpretations
from semlog.parser import parse
from semlog.preservation import S3_VALUES, VITERBI_GRID, _pi_n_valuer, check_preservation
from semlog.semirings import LUKASIEWICZ, S3, TROPICAL, VITERBI

GATE_TARGETS = (
    (VITERBI, VITERBI_GRID),
    (S3, S3_VALUES),
    (LUKASIEWICZ, VITERBI_GRID),
    (TROPICAL, (Fraction(0), Fraction(1, 2), Fraction(1))),
)
PROPS = ("extensions", "subinterpretations")
# Certified at every pair up to size 3: a criterion-9 sentence, and one whose
# order first fails at (3, 4).
CERTIFIED_TO_3 = (
    "(A! x. Q(x)) | E! x. (R(x) | Q(x))",
    "(A! x. E! y. E! z. (R(x) | Q(y) | R(z))) | E! x. R(x)",
)
# Holds on the size-2 grid; the order fails at (2, 3) and the size-3 grid refutes.
REFUTED_AT_3 = "A! x. E! y. (R(x) | Q(y))"


def _verdict(v):
    return v.result, repr(v.witness), v.values, v.search_space


def _outcome(fn, *args, **kwargs):
    try:
        return "value", _verdict(fn(*args, **kwargs))
    except Exception as exc:  # the exception is part of the behaviour compared
        return "raised", type(exc), str(exc)


def _same_as_reference(f, semiring, prop, max_size, grid, vocab=None):
    new = check_preservation(f, semiring, prop, max_size, grid, vocab)
    assert _verdict(new) == _verdict(ref.check_preservation(f, semiring, prop, max_size, grid, vocab))
    return new


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(GATE_TARGETS), st.sampled_from(PROPS),
       st.sampled_from((UNARY_R, UNARY_RQ)))
def test_random_sentences_agree_with_the_reference(seed, target, prop, vocab):
    semiring, grid = target
    _same_as_reference(random_foneq_sentence(random.Random(seed), vocab), semiring, prop, 2, grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(GATE_TARGETS),
       st.sampled_from(((UNARY_R, 3), (UNARY_RQ, 2))))
def test_an_ordered_pair_holds_no_violation(seed, target, case):
    """Whenever pi_a <= pi_b (pi_b <= pi_a), no size-b interpretation of the
    grid values a size-a subinterpretation above (below) itself."""
    semiring, grid = target
    vocab, max_size = case
    f = random_foneq_sentence(random.Random(seed), vocab)
    plan = compile_formula(f)
    values_on_pi = _pi_n_valuer(semiring, vocab, (f,), (plan,))
    for a, b in itertools.combinations(range(1, max_size + 1), 2):
        (pa,), (pb,) = values_on_pi(a), values_on_pi(b)
        grows, shrinks = pa.leq(pb), pb.leq(pa)
        if not (grows or shrinks):
            continue
        for interp in enumerate_interpretations(semiring, vocab, b, grid):
            vb = run_plan(plan, interp)
            for subset in itertools.combinations(interp.universe, a):
                va = run_plan(plan, interp.restrict(subset))
                assert not grows or semiring.leq(va, vb), (f, a, b, interp, subset)
                assert not shrinks or semiring.leq(vb, va), (f, a, b, interp, subset)


@pytest.mark.parametrize("text", CERTIFIED_TO_3)
def test_a_fully_certified_size_is_not_enumerated(text, monkeypatch):
    import semlog.preservation as preservation

    def enumerating(*args):
        raise AssertionError("enumerated a certified size")

    monkeypatch.setattr(preservation, "enumerate_interpretations", enumerating)
    verdict = check_preservation(parse(text), VITERBI, "extensions", 3, VITERBI_GRID)
    assert (verdict.result, verdict.witness) == ("holds_on_search_space", None)
    assert verdict.certified == ((1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("semiring, grid", GATE_TARGETS[:2], ids=lambda v: getattr(v, "id", ""))
def test_the_size_3_refutation_keeps_its_witness(semiring, grid):
    f = parse(REFUTED_AT_3)
    assert not _same_as_reference(f, semiring, "extensions", 2, grid).refuted
    verdict = _same_as_reference(f, semiring, "extensions", 3, grid)
    assert verdict.refuted and verdict.certified == ((1, 2), (1, 3))


def test_relations_outside_the_vocabulary_turn_the_certificate_off():
    # 0 on pi_n over R at every size, but ~Q is 1 in every interpretation,
    # so the sentence behaves as A y. R(y)
    f = parse("E x. (~Q(x) & A y. R(y))")
    verdict = _same_as_reference(f, VITERBI, "extensions", 2, VITERBI_GRID, Vocabulary({"R": 1}))
    assert verdict.refuted and verdict.certified == ()


def test_constants_turn_the_certificate_off():
    # pi_1 <= pi_2 would hold, but restricting {1, 2} to {2} drops the constant
    f = Or(Exists("x", Atom("R", ("x",))), Atom("R", (1,)))
    assert _pi_n_valuer(VITERBI, UNARY_R, (f,), (compile_formula(f),)) is None
    new = _outcome(check_preservation, f, VITERBI, "extensions", 2, VITERBI_GRID)
    assert new == _outcome(ref.check_preservation, f, VITERBI, "extensions", 2, VITERBI_GRID)
    assert new == ("raised", PreconditionError, "element 1 not in universe")
