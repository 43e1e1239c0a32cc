"""Semiring axioms, natural order, and homomorphisms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlog.errors import CarrierMismatch, PreconditionError
from semlog.lattices import LatticeSemiring, diamond_lattice
from semlog.semirings import (
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
    check_hom,
    natural_leq_witnessed,
    s3_embedding,
    semiring_from_id,
    threshold_hom,
)

def _cube_lattice():
    """The 8-element Boolean cube as a distributive lattice."""
    from semlog.lattices import FiniteLattice

    elems = ["".join(bits) for bits in
             ("000", "001", "010", "100", "011", "101", "110", "111")]
    pairs = [
        (a, b)
        for a in elems
        for b in elems
        if a != b and all(x <= y for x, y in zip(a, b))
    ]
    return FiniteLattice(elems, pairs)


FINITE = [BOOLEAN, S3, ChainSemiring(4), ChainSemiring(6),
          LatticeSemiring(diamond_lattice(), "diamond"),
          LatticeSemiring(_cube_lattice(), "cube8")]
SAMPLED = [FUZZY, VITERBI, LUKASIEWICZ, DOUBT, TROPICAL, NAT, NATINF]
ALL = FINITE + SAMPLED


def axiom_violations(sr, triples):
    bad = []
    for a, b, c in triples:
        if sr.add(a, b) != sr.add(b, a):
            bad.append(("add-comm", a, b))
        if sr.mul(a, b) != sr.mul(b, a):
            bad.append(("mul-comm", a, b))
        if sr.add(sr.add(a, b), c) != sr.add(a, sr.add(b, c)):
            bad.append(("add-assoc", a, b, c))
        if sr.mul(sr.mul(a, b), c) != sr.mul(a, sr.mul(b, c)):
            bad.append(("mul-assoc", a, b, c))
        if sr.mul(a, sr.add(b, c)) != sr.add(sr.mul(a, b), sr.mul(a, c)):
            bad.append(("distrib", a, b, c))
        if sr.add(a, sr.zero) != a or sr.mul(a, sr.one) != a:
            bad.append(("neutral", a))
        if sr.mul(a, sr.zero) != sr.zero:
            bad.append(("annihilate", a))
    return bad


@pytest.mark.parametrize("sr", FINITE, ids=lambda s: s.id)
def test_axioms_exhaustive_on_finite_carriers(sr):
    carrier = sr.carrier()
    triples = [(a, b, c) for a in carrier for b in carrier for c in carrier]
    assert axiom_violations(sr, triples) == []


@pytest.mark.parametrize("sr", SAMPLED, ids=lambda s: s.id)
def test_axioms_sampled(sr):
    rng = random.Random(7)
    triples = [
        (sr.random_value(rng), sr.random_value(rng), sr.random_value(rng))
        for _ in range(10_000)
    ]
    assert axiom_violations(sr, triples) == []


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.id)
def test_zero_is_not_one(sr):
    assert sr.zero != sr.one


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.id)
def test_flags_are_consistent(sr):
    if sr.absorptive:
        assert sr.additively_idempotent
    if sr.absorptive and sr.multiplicatively_idempotent:
        # lattice behavior: join/meet of comparable values
        rng = random.Random(2)
        values = sr.carrier() or [sr.random_value(rng) for _ in range(20)]
        for a in values:
            for b in values:
                assert sr.add(a, sr.mul(a, b)) == a
                assert sr.mul(a, sr.add(a, b)) == a


@pytest.mark.parametrize("sr", FINITE, ids=lambda s: s.id)
def test_natural_order_matches_witness_search(sr):
    carrier = sr.carrier()
    for s in carrier:
        for t in carrier:
            assert sr.leq(s, t) == natural_leq_witnessed(sr, s, t)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.id)
def test_zero_is_bottom(sr):
    rng = random.Random(3)
    values = sr.carrier() or [sr.random_value(rng) for _ in range(50)]
    for v in values:
        assert sr.leq(sr.zero, v)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.id)
def test_absorptive_flag_matches_law(sr):
    rng = random.Random(11)
    values = sr.carrier() or [sr.random_value(rng) for _ in range(40)]
    law = all(sr.add(s, sr.mul(s, t)) == s for s in values for t in values)
    assert law == sr.absorptive


def test_viterbi_and_lukasiewicz_products():
    assert VITERBI.mul(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
    assert LUKASIEWICZ.mul(Fraction(1, 2), Fraction(1, 3)) == 0
    assert DOUBT.mul(Fraction(3, 4), Fraction(1, 2)) == 1


def test_natinf_sums():
    assert NATINF.sum([2, 3, INF]) == INF
    assert NATINF.sum([]) == 0
    assert NATINF.prod([]) == 1
    assert NATINF.mul(INF, 0) == 0
    assert NATINF.mul(INF, 3) == INF


def test_reversed_orders():
    # doubt: numeric order reversed
    assert DOUBT.leq(Fraction(7, 10), Fraction(3, 10))
    assert not DOUBT.leq(Fraction(3, 10), Fraction(7, 10))
    # tropical: infinity is the bottom
    assert TROPICAL.leq(INF, Fraction(5))
    assert TROPICAL.leq(Fraction(5), Fraction(2))
    assert not NAT.leq(3, 2)


def test_carrier_mismatch_raises():
    with pytest.raises(CarrierMismatch):
        VITERBI.check(Fraction(3, 2))
    with pytest.raises(CarrierMismatch):
        S3.check(5)
    with pytest.raises(CarrierMismatch):
        NAT.check(-1)


@given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_lukasiewicz_and_doubt_stay_in_unit_interval(a, b):
    for sr in (LUKASIEWICZ, DOUBT):
        v = sr.mul(a, b)
        assert 0 <= v <= 1
        w = sr.add(a, b)
        assert 0 <= w <= 1


LINEAR = [sr for sr in ALL if sr.linearly_ordered]


def _values(sr):
    """Values of sr: its whole carrier, or zero, one and random values (INF
    included on tropical and natinf)."""
    if sr.carrier():
        return st.sampled_from(sr.carrier())
    return st.one_of(st.sampled_from([sr.zero, sr.one]),
                     st.randoms(use_true_random=False).map(sr.random_value))


@given(st.sampled_from(LINEAR).flatmap(lambda sr: st.tuples(st.just(sr), _values(sr), _values(sr))))
@settings(max_examples=400, deadline=None)
def test_strict_order_is_the_natural_order_without_equality(case):
    """Every linearly ordered carrier's `lt`, its own or the base rule,
    agrees with leq(s, t) and s != t."""
    sr, s, t = case
    for a, b in ((s, t), (t, s), (s, s)):
        assert sr.lt(a, b) == (sr.leq(a, b) and a != b), (sr.id, a, b)


def test_threshold_homs():
    geq_eps = threshold_hom("geq_eps")
    geq_one = threshold_hom("geq_one")
    eps = S3.EPS
    assert geq_eps(eps) == S3.one
    assert geq_one(eps) == S3.zero
    assert geq_eps(S3.zero) == S3.zero
    assert geq_one(S3.one) == S3.one
    assert check_hom(geq_eps).ok
    assert check_hom(geq_one).ok


def test_s3_embeddings_are_homs():
    for target in (FUZZY, LatticeSemiring(diamond_lattice(), "diamond"), ChainSemiring(5)):
        e = s3_embedding(target)
        assert check_hom(e).ok
        assert e(0) == target.zero and e(2) == target.one


def test_check_hom_catches_violations():
    from semlog.semirings import SemiringHom

    bad = SemiringHom(S3, S3, lambda v: {0: 0, 1: 2, 2: 1}[v], "swap")
    report = check_hom(bad)
    assert not report.ok and report.violations


def test_semiring_from_id():
    assert semiring_from_id("viterbi") is VITERBI
    assert semiring_from_id("chain:4").k == 4
    assert semiring_from_id("s3") is S3
    with pytest.raises(PreconditionError):
        semiring_from_id("galactic")


def test_power():
    assert VITERBI.power(Fraction(1, 2), 3) == Fraction(1, 8)
    assert NAT.power(2, 5) == 32
    assert TROPICAL.power(Fraction(3), 2) == Fraction(6)


def test_fraction_products_match_the_wrapping_expressions():
    """mul of the Fraction carriers works on the values as given; it equals
    the expression that wraps both inputs in Fraction first, and returns a
    Fraction (or INF) for int inputs too."""
    unit = [0, 1, Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    old = {
        VITERBI: lambda a, b: Fraction(a) * Fraction(b),
        LUKASIEWICZ: lambda a, b: max(Fraction(a) + Fraction(b) - 1, Fraction(0)),
        DOUBT: lambda a, b: min(Fraction(a) + Fraction(b), Fraction(1)),
        TROPICAL: lambda a, b: INF if INF in (a, b) else Fraction(a) + Fraction(b),
    }
    grids = {TROPICAL: [0, 2, Fraction(0), Fraction(5, 2), INF]}
    for sr, expr in old.items():
        grid = grids.get(sr, unit)
        for a in grid:
            for b in grid:
                got = sr.mul(a, b)
                assert got == expr(a, b), (sr.id, a, b)
                assert isinstance(got, Fraction) or got is INF, (sr.id, a, b, got)
