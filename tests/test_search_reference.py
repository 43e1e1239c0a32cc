"""The bounded searches that now run on one driver, `preservation._valued`,
against the frozen copies of their own loops (reference_search.py): on
random corpus sentences over S3, Viterbi, nat and chain:4 at sizes <= 2,
`verify_equivalent`, the homomorphism branch of `check_preservation`,
`entails_at` and `s3_entailment` give the same verdict, `checked` count,
witness, description and certified sizes, or raise the same error."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from corpus import UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog.errors import GuardExceeded
from semlog.formulas import FALSE, Or
from semlog.preservation import (
    S3_VALUES,
    VITERBI_GRID,
    check_preservation,
    entails_at,
    s3_entailment,
    verify_equivalent,
)
from semlog.semirings import NAT, S3, VITERBI, ChainSemiring

TARGETS = (
    (S3, S3_VALUES),
    (VITERBI, VITERBI_GRID),
    (NAT, (1, 2)),
    (ChainSemiring(4), (1, 2, 3)),
)
SIZES = (1, 2)


def _fields(v):
    """Every field of a verdict that a caller can read, the witness by repr."""
    fields = dict(vars(v))
    fields["witness"] = repr(fields["witness"])
    return fields


def _outcome(fn, *args, **kwargs):
    try:
        return "value", _fields(fn(*args, **kwargs))
    except Exception as exc:  # the exception is part of the behaviour compared
        return "raised", type(exc), str(exc)


def _sentences(rng, vocab, count):
    return [random_foneq_sentence(rng, vocab) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(TARGETS), st.sampled_from((UNARY_R, UNARY_RQ)),
       st.booleans())
def test_verify_equivalent_agrees_with_the_reference(seed, target, vocab, same):
    """`same` pairs a sentence with f | false, which every semiring values as
    f: certified everywhere over an absorptive semiring, enumerated and
    sampled over nat."""
    semiring, grid = target
    rng = random.Random(seed)
    f = random_foneq_sentence(rng, vocab)
    g = Or(f, FALSE) if same else random_foneq_sentence(rng, vocab)
    args = (f, g, semiring, vocab, grid, SIZES, 30, 2, seed % 7)
    assert _outcome(verify_equivalent, *args) == _outcome(ref.verify_equivalent, *args)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(TARGETS))
def test_the_homomorphism_branch_agrees_with_the_reference(seed, target):
    semiring, grid = target
    f = random_foneq_sentence(random.Random(seed), UNARY_R)
    new = _outcome(check_preservation, f, semiring, "homomorphisms", 2, grid)
    assert new == _outcome(ref.check_homomorphisms, f, semiring, 2, grid)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(TARGETS), st.sampled_from((UNARY_R, UNARY_RQ)),
       st.integers(0, 2), st.integers(1, 2))
def test_entailment_agrees_with_the_reference(seed, target, vocab, premises, conclusions):
    semiring, grid = target
    rng = random.Random(seed)
    phi, psi = _sentences(rng, vocab, premises), _sentences(rng, vocab, conclusions)
    assert (_outcome(entails_at, phi, psi, semiring, SIZES, grid)
            == _outcome(ref.entails_at, phi, psi, semiring, SIZES, grid))
    assert _outcome(s3_entailment, phi, psi, SIZES) == _outcome(ref.s3_entailment, phi, psi, SIZES)


def test_a_guard_error_is_raised_where_the_reference_raises_it():
    # size 1 (16 interpretations) is searched before size 2 exceeds the guard
    f = random_foneq_sentence(random.Random(3), UNARY_RQ)
    args = (f, Or(f, FALSE), NAT, UNARY_RQ, (1, 2), SIZES, 0, 2, 0, 100)
    new = _outcome(verify_equivalent, *args)
    assert new == _outcome(ref.verify_equivalent, *args)
    assert new == ("raised", GuardExceeded, "256 interpretations exceed the guard 100")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(((VITERBI, VITERBI_GRID), (NAT, (1, 2)))))
def test_verify_equivalent_at_the_defaults_agrees_with_the_reference(seed, target):
    """1,000 draws over sizes up to 5, f against f | false: over Viterbi every
    size is certified, so drawing may stop early; over nat none is."""
    semiring, grid = target
    f = random_foneq_sentence(random.Random(seed), UNARY_R)
    args = (f, Or(f, FALSE), semiring, UNARY_R, grid)
    new = _outcome(verify_equivalent, *args)
    assert new == _outcome(ref.verify_equivalent, *args)
    assert new[0] == "value" and new[1]["ok"]
    assert new[1]["certified"] == ((1, 2, 3, 4, 5) if semiring is VITERBI else ())
