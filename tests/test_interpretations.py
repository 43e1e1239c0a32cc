"""Interpretations: files, validation, transformations, relations."""

import random
from fractions import Fraction

import pytest

from corpus import UNARY_R
from semlog.errors import CarrierMismatch, GuardExceeded, NotModelDefining, PreconditionError
from semlog.interpretations import (
    Interpretation,
    Vocabulary,
    check_interp_hom,
    compose_hom,
    count_interpretations,
    enumerate_interpretations,
    is_subinterpretation,
    parse_interpretation,
    random_interpretation,
)
from semlog.semirings import FUZZY, NAT, S3, VITERBI, s3_embedding, threshold_hom

VIT_AB = """
semiring: viterbi
universe: a b
R(a) = 1/2
R(b) = 1/4
default: 0
"""


def test_parse_interpretation_file():
    pi = parse_interpretation(VIT_AB)
    assert pi.semiring is VITERBI
    assert pi.universe == (1, 2)
    assert pi.literal("R", (1,)) == Fraction(1, 2)
    assert pi.literal("R", (2,), positive=False) == 0
    assert pi.element_name(1) == "a"
    assert pi.is_model_defining()


def test_default_rule():
    pi = parse_interpretation("semiring: viterbi\nuniverse: a b\nR(a) = 1/2\ndefault: 0\n")
    assert pi.literal("R", (2,)) == 0
    assert pi.literal("R", (2,), positive=False) == 1


def test_parse_interpretation_errors():
    with pytest.raises(PreconditionError, match="semiring"):
        parse_interpretation("universe: a\n")
    with pytest.raises(PreconditionError, match="line 3"):
        parse_interpretation("semiring: viterbi\nuniverse: a\nR(a) 1/2\n")
    with pytest.raises(PreconditionError, match="unknown element"):
        parse_interpretation("semiring: viterbi\nuniverse: a\nR(b) = 1/2\n")


def test_validate_flags_double_zero_and_double_nonzero():
    pi = Interpretation(
        VITERBI,
        (1,),
        UNARY_R,
        {("R", (1,)): (Fraction(0), Fraction(0))},
    )
    assert not pi.is_model_defining()
    assert pi.validate() == ["R(1)"]
    pj = Interpretation(
        VITERBI,
        (1,),
        UNARY_R,
        {("R", (1,)): (Fraction(1, 2), Fraction(1, 2))},
    )
    assert not pj.is_model_defining()


def test_restrict_and_pad():
    pi = parse_interpretation(VIT_AB)
    pa = pi.restrict([1])
    assert pa.universe == (1,)
    assert pa.literal("R", (1,)) == Fraction(1, 2)
    assert is_subinterpretation(pa, pi)
    assert is_subinterpretation(pi, pi)
    padded = pa.pad(1, Fraction(1, 4))
    assert len(padded.universe) == 2
    new = padded.universe[-1]
    assert padded.literal("R", (new,)) == Fraction(1, 4)
    assert padded.literal("R", (new,), positive=False) == 0
    assert is_subinterpretation(pa, padded)
    # zero fill gives the dual pair
    padded0 = pa.pad(1, Fraction(0))
    new0 = padded0.universe[-1]
    assert padded0.literal("R", (new0,)) == 0
    assert padded0.literal("R", (new0,), positive=False) == 1


def test_subinterpretation_disagreement():
    pi = parse_interpretation(VIT_AB)
    other = Interpretation.from_atoms(VITERBI, (1,), UNARY_R, {("R", (1,)): Fraction(1, 4)})
    assert not is_subinterpretation(other, pi)


def test_check_interp_hom_collapse_example():
    # g(a)=a, g(b)=a from (Ra=1/2, Rb=1/4) to (Ra=1/2) over viterbi:
    # a homomorphism (max of preimages 1/2 <= 1/2) but not strong
    pb = parse_interpretation(VIT_AB)
    pa = pb.restrict([1])
    g = {1: 1, 2: 1}
    assert check_interp_hom(g, pb, pa) == "hom"
    assert check_interp_hom({1: 1}, pa, pb) == "embedding"
    assert check_interp_hom({1: 1, 2: 2}, pb, pb) == "embedding"


def test_check_interp_hom_preimage_sum_over_nat():
    # two preimage atoms valued 2 and 3 onto one atom valued 4: 5 <= 4 fails
    pa = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 2, ("R", (2,)): 3})
    pb4 = Interpretation.from_atoms(NAT, (1,), UNARY_R, {("R", (1,)): 4})
    pb5 = Interpretation.from_atoms(NAT, (1,), UNARY_R, {("R", (1,)): 5})
    g = {1: 1, 2: 1}
    assert check_interp_hom(g, pa, pb4) == "none"
    assert check_interp_hom(g, pa, pb5) == "hom"


def test_check_interp_hom_requires_total_map():
    pa = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 1})
    pb = Interpretation.from_atoms(NAT, (1,), UNARY_R, {("R", (1,)): 1})
    with pytest.raises(PreconditionError, match="total"):
        check_interp_hom({1: 1}, pa, pb)


def test_compose_hom_threshold_flags_non_model_defining():
    pi = Interpretation.from_atoms(S3, (1,), UNARY_R, {("R", (1,)): S3.EPS})
    h1 = threshold_hom("geq_one")
    with pytest.raises(NotModelDefining, match="R"):
        compose_hom(h1, pi)
    image = compose_hom(h1, pi, require_model_defining=False)
    assert image.literal("R", (1,)) == 0
    assert image.literal("R", (1,), positive=False) == 0


def test_compose_hom_embedding_is_model_defining():
    pi = Interpretation.from_atoms(
        S3, (1, 2), UNARY_R, {("R", (1,)): S3.EPS, ("R", (2,)): S3.one}
    )
    e = s3_embedding(FUZZY)
    image = compose_hom(e, pi)
    assert image.semiring is FUZZY
    assert image.literal("R", (1,)) == Fraction(1, 2)
    assert image.is_model_defining()


def test_enumerate_interpretation_counts():
    assert count_interpretations(UNARY_R, 1, (1, 2)) == 4
    out = list(enumerate_interpretations(S3, UNARY_R, 1, (S3.EPS, S3.one)))
    assert len(out) == 4
    assert all(pi.is_model_defining() for pi in out)
    # every positive choice, then every negative one
    assert [pi.pair("R", (1,)) for pi in out] == [(1, 0), (2, 0), (0, 1), (0, 2)]
    from semlog.semirings import BOOLEAN

    out_bool = list(enumerate_interpretations(BOOLEAN, UNARY_R, 1, (True,)))
    assert len(out_bool) == 2
    out2 = list(enumerate_interpretations(S3, UNARY_R, 2, (S3.EPS, S3.one)))
    assert len(out2) == 16 == count_interpretations(UNARY_R, 2, (1, 2))


def test_enumerate_guard():
    big = Vocabulary({"E": 2})
    with pytest.raises(GuardExceeded):
        list(enumerate_interpretations(S3, big, 5, (1, 2)))
    with pytest.raises(GuardExceeded):
        list(enumerate_interpretations(S3, UNARY_R, 3, (1, 2), guard=10))


def test_value_set_must_not_contain_zero():
    with pytest.raises(PreconditionError, match="0"):
        list(enumerate_interpretations(S3, UNARY_R, 1, (0, 1)))


def test_relabel_is_bijective_rename():
    pi = parse_interpretation(VIT_AB)
    out = pi.relabel({1: 2, 2: 1})
    assert out.literal("R", (2,)) == Fraction(1, 2)
    assert out.literal("R", (1,)) == Fraction(1, 4)


def _parts(pi):
    return (pi.semiring, pi.universe, pi.vocab, pi.table, pi.default, pi.names, repr(pi))


def _checked_copy(pi):
    return Interpretation(pi.semiring, pi.universe, pi.vocab, pi.table, pi.default, pi.names)


def test_enumerated_interpretations_match_checked_construction():
    vocab = Vocabulary({"R": 1, "E": 2})
    grid = (Fraction(1, 2), Fraction(1))
    count = 0
    for size in (1, 2):
        for pi in enumerate_interpretations(VITERBI, vocab, size, grid, guard=10**5):
            assert _parts(pi) == _parts(_checked_copy(pi))
            count += 1
    assert count == 4**2 + 4**6
    for pi in enumerate_interpretations(S3, UNARY_R, 2, (S3.EPS, S3.one)):
        assert _parts(pi) == _parts(_checked_copy(pi))


def test_random_interpretation_matches_checked_construction():
    rng = random.Random(5)
    vocab = Vocabulary({"R": 1, "E": 2})
    for size in (1, 2, 3):
        pi = random_interpretation(VITERBI, vocab, size, (Fraction(1, 4), Fraction(1)), rng)
        assert _parts(pi) == _parts(_checked_copy(pi))


def test_restrict_matches_checked_construction():
    pi = parse_interpretation(
        "semiring: viterbi\nuniverse: a b c\nR(a) = 1/2\n~R(c) = 1/4\nE(a, b) = 1/4\n"
        "E(c, c) = 1\n"
    )
    for subset in ([1], [2], [3], [1, 3], [3, 1, 3], [1, 2, 3]):
        pa = pi.restrict(subset)
        assert pa.universe == tuple(sorted(set(subset)))
        assert _parts(pa) == _parts(
            Interpretation(pi.semiring, pa.universe, pi.vocab,
                           {k: v for k, v in pi.table.items() if set(k[1]) <= set(subset)},
                           pi.default, pi.names)
        )
    with pytest.raises(PreconditionError, match="contained"):
        pi.restrict([4])


def test_grid_value_outside_the_carrier_raises_before_anything_is_yielded():
    # the first interpretation uses only the first grid value
    gen = enumerate_interpretations(VITERBI, UNARY_R, 2, (Fraction(1, 2), Fraction(3)))
    with pytest.raises(CarrierMismatch):
        next(gen)
    with pytest.raises(CarrierMismatch):
        next(enumerate_interpretations(S3, UNARY_R, 1, (S3.one, 7)))
    with pytest.raises(CarrierMismatch):
        random_interpretation(VITERBI, UNARY_R, 1, (Fraction(1, 2), -1), random.Random(0))
