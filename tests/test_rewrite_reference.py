"""The shared rewrite driver: a differential test against the frozen copy of
the two pipelines it replaced (reference_rewrite.py).  Both must agree on the
output, threshold, substitution records, gate verdict and verification, and
print the same summary, except that the lattice pipeline now also prints the
fuzzy verification that the old report kept only when it failed."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from corpus import UNARY_R, random_foneq_sentence
from semlog.parser import parse
from semlog.preservation import rewrite_sigma1_lattice, rewrite_sigma1_strict
from semlog.semirings import DOUBT, LUKASIEWICZ, TROPICAL, VITERBI
from test_acceptance import STRICT_REWRITE_CORPUS

LATTICE_SENTENCES = (
    "A y. E z. R(z)",
    "A y. ((E z. R(z)) | E z. (R(z) & Q(y)))",
    "E x. R(x)",
)
# Two innermost universals, replaced one after the other.
TWO_UNIVERSALS = "((A! x. R(x)) | E! x. R(x)) & ((A! y. Q(y)) | E! y. Q(y))"
STRICT_SEMIRINGS = (VITERBI, LUKASIEWICZ, TROPICAL, DOUBT)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is part of the behaviour compared
        return "raised", type(exc), str(exc)


def _result(v):
    return None if v is None else (v.ok, v.description, v.checked, v.certified, repr(v.witness))


def _gate(g):
    return (g.result, g.search_space, repr(g.witness), g.values)


def _assert_same(new, old, lattice):
    if old[0] == "raised" or new[0] == "raised":
        assert new == old
        return
    new, old = new[1], old[1]
    assert new.output == old.output
    assert new.threshold == old.threshold
    assert new.substitutions == old.substitutions
    assert _gate(new.gate) == _gate(old.gate)
    assert _result(new.verification) == _result(old.verification)
    assert new.ok == old.ok
    new_lines, old_lines = new.summary().splitlines(), old.summary().splitlines()
    v = old.verification
    fuzzy_failed = v is not None and v.description.startswith("over fuzzy")
    if not (lattice and v is not None and (v.ok or fuzzy_failed)):
        assert new_lines == old_lines
        return
    # The old pipeline ran the fuzzy check after a verified S3 check and
    # printed it only when it failed, in place of the S3 line.
    assert new_lines[-2].startswith("verify: verified (over s3: ")
    assert new_lines[-1].startswith("verify: ") and "(over fuzzy: " in new_lines[-1]
    if fuzzy_failed:
        assert new_lines[:-2] + new_lines[-1:] == old_lines
    else:
        assert new_lines[:-1] == old_lines


def _compare_strict(f, semiring):
    new = _outcome(rewrite_sigma1_strict, f, semiring)
    _assert_same(new, _outcome(ref.rewrite_sigma1_strict, f, semiring), lattice=False)
    return new


def _compare_lattice(f):
    new = _outcome(rewrite_sigma1_lattice, f)
    _assert_same(new, _outcome(ref.rewrite_sigma1_lattice, f), lattice=True)
    return new


def test_strict_corpus_agrees_with_the_reference():
    for text, sr in STRICT_REWRITE_CORPUS:
        assert _compare_strict(parse(text), sr)[1].ok, text


def test_lattice_sentences_agree_with_the_reference():
    for text in LATTICE_SENTENCES:
        report = _compare_lattice(parse(text))[1]
        assert report.ok and len(report.verifications) == 2, text


def test_gate_failures_agree_with_the_reference():
    assert _compare_strict(parse("E x. A y. R(x)"), VITERBI)[1].gate.refuted
    assert _compare_lattice(parse("A x. (R(x) | ~R(x))"))[1].gate.refuted


def test_every_innermost_universal_is_replaced():
    f = parse(TWO_UNIVERSALS)
    for new in (_compare_strict(f, VITERBI), _compare_lattice(f)):
        assert len(new[1].substitutions) == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(STRICT_SEMIRINGS))
def test_random_sentences_agree_with_the_reference(seed, semiring):
    f = random_foneq_sentence(random.Random(seed), UNARY_R)
    _compare_strict(f, semiring)
    _compare_lattice(f)
