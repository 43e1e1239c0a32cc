"""Absorptive polynomial and N[X] algebra."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from fractions import Fraction

import pytest

import reference_polynomials as reference
from corpus import UNARY_RQ
from semlog.errors import PreconditionError
from semlog.evaluation import evaluate
from semlog.interpretations import random_interpretation
from semlog.parser import parse
from semlog.polynomials import (
    EXPONENT_CAP,
    NATPOLY,
    SPOLY,
    AbsorptivePoly,
    Monomial,
    NatPoly,
    _SPLIT_FROM,
    _prune,
    absorbs,
    collapse_exponents,
    lit_var,
    specialize,
    var_sort_key,
)
from semlog.preservation import S3_VALUES, VITERBI_GRID
from semlog.provenance import assignment_from_interpretation, pi_n
from semlog.semirings import INF, NATINF, S3, VITERBI


def P(*monomials):
    return AbsorptivePoly(monomials)


def test_absorption_prunes_larger_exponents():
    x2y = Monomial((("x", 2), ("y", 1)))
    xy = Monomial((("x", 1), ("y", 1)))
    assert absorbs(xy, x2y)
    assert not absorbs(x2y, xy)
    assert P(x2y, xy) == P(xy)


def test_quotient_kills_dual_pairs():
    a = lit_var("R", (1,), True)
    na = lit_var("R", (1,), False)
    prod = SPOLY.mul(AbsorptivePoly.var(a), AbsorptivePoly.var(na))
    assert prod == SPOLY.zero
    # but distinct atoms multiply fine
    b = lit_var("R", (2,), True)
    ok = SPOLY.mul(AbsorptivePoly.var(a), AbsorptivePoly.var(b))
    assert len(ok.monomials) == 1 and ok.monomials[0].degree() == 2


def test_neutral_elements():
    p = P(Monomial((("x", 1),)))
    assert SPOLY.add(p, SPOLY.zero) == p
    assert SPOLY.mul(p, SPOLY.one) == p
    q = NatPoly.var("x")
    assert NATPOLY.add(q, NATPOLY.zero) == q
    assert NATPOLY.mul(q, NATPOLY.one) == q


def _random_spoly(rng):
    names = ["u", "v", "w"]
    lits = [lit_var("R", (i,), pos) for i in (1, 2) for pos in (True, False)]
    pool = names + lits
    ms = []
    for _ in range(rng.randrange(0, 4)):
        vars_ = rng.sample(pool, rng.randrange(1, 3))
        ms.append(Monomial((v, rng.randrange(1, 4)) for v in vars_))
    return AbsorptivePoly(ms)


def _is_antichain(p):
    return all(
        not (absorbs(m1, m2) and m1 != m2)
        for m1 in p.monomials
        for m2 in p.monomials
    )


def test_antichain_invariant_random_ops():
    rng = random.Random(5)
    for _ in range(2000):
        a, b = _random_spoly(rng), _random_spoly(rng)
        assert _is_antichain(a.add(b))
        assert _is_antichain(a.mul(b))


def test_absorptive_axioms_random():
    rng = random.Random(6)
    for _ in range(500):
        a, b, c = (_random_spoly(rng) for _ in range(3))
        assert a.add(b) == b.add(a)
        assert a.mul(b) == b.mul(a)
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.add(a.mul(b)) == a  # absorption
        assert a.add(a) == a


def test_natural_order_is_absorption():
    x = AbsorptivePoly.var("x")
    xy = P(Monomial((("x", 1), ("y", 1))))
    assert SPOLY.leq(xy, x)
    assert not SPOLY.leq(x, xy)
    assert SPOLY.leq(SPOLY.zero, x)
    assert SPOLY.leq(x, SPOLY.one)


def test_natpoly_arithmetic_and_order():
    x = NatPoly.var("x")
    two_x = NATPOLY.add(x, x)
    assert two_x == NatPoly(((Monomial.var("x"), 2),))
    sq = NATPOLY.mul(x, x)
    assert sq == NatPoly(((Monomial.var("x", 2), 1),))
    assert NATPOLY.leq(x, two_x)
    assert not NATPOLY.leq(two_x, x)
    assert sq.degree() == 2
    assert two_x.degree() == 1


def test_degree_and_support():
    m = Monomial((("x", 3), ("y", 1)))
    p = P(m, Monomial((("z", 1),)))
    assert p.degree() == 4
    assert p.support() == {"x", "y", "z"}


def test_specialize_consistency_checked():
    a = lit_var("R", (1,), True)
    na = lit_var("R", (1,), False)
    p = SPOLY.add(AbsorptivePoly.var(a), AbsorptivePoly.var(na))
    with pytest.raises(PreconditionError, match="inconsistent"):
        specialize(p, {a: Fraction(1, 2), na: Fraction(1, 2)}, VITERBI)
    # consistent: one side zero
    v = specialize(p, {a: Fraction(1, 2), na: Fraction(0)}, VITERBI)
    assert v == Fraction(1, 2)


def test_specialize_examples():
    # n * x^n at x = m over natural-with-infinity
    p = NatPoly(((Monomial.var("x", 3), 3),))
    assert specialize(p, {"x": 2}, NATINF) == 3 * 2 ** 3
    # sum of two variables, everything to one in S3
    q = SPOLY.add(AbsorptivePoly.var("a"), AbsorptivePoly.var("b"))
    assert specialize(q, {"a": S3.one, "b": S3.one}, S3) == S3.one


def test_specialize_missing_variable():
    with pytest.raises(PreconditionError, match="no value"):
        specialize(AbsorptivePoly.var("x"), {}, VITERBI)


def test_exponent_cap():
    with pytest.raises(PreconditionError, match="cap"):
        Monomial((("x", 2 ** 33),))


# String variables and literal keys of both polarities, so that dual pairs meet.
_VARS = ["u", "v", "w"] + [
    lit_var(rel, (i,), pos) for rel in ("R", "Q") for i in (1, 2) for pos in (True, False)
]
_mono = st.lists(
    st.tuples(st.sampled_from(_VARS), st.integers(min_value=1, max_value=4)),
    max_size=3,
).map(lambda pairs: Monomial(dict(pairs).items()))
_spoly = st.lists(_mono, max_size=4).map(AbsorptivePoly)
_natpoly = st.lists(st.tuples(_mono, st.integers(min_value=1, max_value=4)), max_size=4).map(
    NatPoly
)


@given(_spoly, _spoly, _spoly)
@settings(max_examples=300, deadline=None)
def test_absorptive_laws_hypothesis(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.add(a.mul(b)) == a
    assert _is_antichain(a.add(b)) and _is_antichain(a.mul(b))


@given(_natpoly, _natpoly, _natpoly)
@settings(max_examples=300, deadline=None)
def test_natpoly_laws_hypothesis(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.add(NATPOLY.zero) == a and a.mul(NATPOLY.one) == a
    assert a.mul(NATPOLY.zero) == NATPOLY.zero


@given(_spoly, _spoly)
@settings(max_examples=200, deadline=None)
def test_natural_order_antisymmetric_hypothesis(a, b):
    if SPOLY.leq(a, b) and SPOLY.leq(b, a):
        assert a == b


def test_printing_is_canonical():
    m1 = Monomial((("y", 1), ("x", 2)))
    m2 = Monomial((("x", 2), ("y", 1)))
    assert repr(m1) == repr(m2) == "x^2*y"
    assert repr(SPOLY.zero) == "0"
    assert repr(SPOLY.one) == "1"
    p = NatPoly(((Monomial.var("x", 2), 3), (Monomial.unit(), 1)))
    assert repr(p) == "1 + 3*x^2"


def test_monomial_merges_repeated_variables():
    m = Monomial((("x", 1), ("x", 2)))
    assert m == Monomial((("x", 3),))
    assert repr(m) == "x^3" and m.degree() == 3
    p = AbsorptivePoly([m])
    assert SPOLY.mul(p, SPOLY.one) == p


def test_monomial_rejects_negative_exponent_before_summing():
    with pytest.raises(PreconditionError, match="negative"):
        Monomial((("x", 1), ("x", -1)))


def test_products_check_the_exponent_cap():
    big = Monomial.var("x", EXPONENT_CAP // 2 + 1)
    with pytest.raises(PreconditionError, match="cap"):
        NatPoly(((big, 1),)).mul(NatPoly(((big, 1),)))
    with pytest.raises(PreconditionError, match="cap"):
        AbsorptivePoly((big,)).mul(AbsorptivePoly((big,)))


def test_exponent_cap_applies_to_summed_exponent():
    half = EXPONENT_CAP // 2
    assert Monomial((("x", half), ("x", half))).exponent("x") == EXPONENT_CAP
    with pytest.raises(PreconditionError, match="cap"):
        Monomial((("x", half), ("x", half), ("x", 1)))


def test_random_values_have_canonical_monomials():
    rng = random.Random(11)
    for _ in range(2000):
        monomials = list(SPOLY.random_value(rng).monomials)
        monomials += [m for m, _ in NATPOLY.random_value(rng).terms]
        for m in monomials:
            assert len(m.variables()) == len(m.exps)


def _prune_by_definition(monomials):
    """The quadratic prune the indexed ``_prune`` replaced, kept as its reference."""
    out = []
    for m in monomials:
        if any(absorbs(k, m) and k != m for k in monomials):
            continue
        if m not in out:
            out.append(m)
    return out


_prune_mono = st.lists(
    st.tuples(st.sampled_from(_VARS), st.integers(min_value=1, max_value=3)),
    max_size=4,
).map(Monomial)
_prune_input = st.lists(_prune_mono, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=25)
)


@given(_prune_input)
@settings(max_examples=500, deadline=None)
def test_prune_matches_definition(ms):
    expected = _prune_by_definition(ms)
    assert sorted(map(repr, _prune(ms))) == sorted(map(repr, expected))
    assert AbsorptivePoly(ms) == AbsorptivePoly(expected)


def test_spoly_pi_6_scale():
    f = parse("A! x. E! y. (R(x) | Q(y))")
    p = evaluate(pi_n(UNARY_RQ, 6, "absorptive"), f)
    assert len(p.monomials) == 5144
    assert len(set(p.monomials)) == len(p.monomials)
    # Distinct canonical monomials of equal degree never absorb each other,
    # so only pairs of different degrees need testing.
    by_degree = {}
    for m in p.monomials:
        by_degree.setdefault(m.degree(), []).append(m)
    for dk, ks in by_degree.items():
        for dm, ms in by_degree.items():
            if dk < dm:
                assert not any(absorbs(k, m) for k in ks for m in ms)
    rng = random.Random(61)
    for target, grid in ((VITERBI, VITERBI_GRID), (S3, S3_VALUES)):
        concrete = random_interpretation(target, UNARY_RQ, 6, grid, rng)
        assignment = assignment_from_interpretation(concrete)
        assert specialize(p, assignment, target) == evaluate(concrete, f)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is part of the behaviour compared
        return "raised", type(exc), str(exc)


# Exponents small, or near half the cap, so that a product of two can exceed it.
_ref_exp = st.integers(min_value=1, max_value=3) | st.integers(
    min_value=EXPONENT_CAP // 2 - 1, max_value=EXPONENT_CAP // 2 + 1
)
# Also at the cap or one below it: a field with bit 32 set, or with its low 32
# bits full, beside a neighbouring rank, and sums one over the cap.
_ref_exp = _ref_exp | st.sampled_from((EXPONENT_CAP - 1, EXPONENT_CAP))
_ref_mono = st.lists(st.tuples(st.sampled_from(_VARS), _ref_exp), max_size=4).map(
    lambda pairs: Monomial(dict(pairs).items())
)
_ref_spoly = st.lists(_ref_mono, max_size=5).map(AbsorptivePoly)
_ref_natpoly = st.lists(
    st.tuples(_ref_mono, st.integers(min_value=1, max_value=4)), max_size=5
).map(NatPoly)


@given(_ref_mono, _ref_mono, _ref_spoly, _ref_spoly, _ref_natpoly, _ref_natpoly)
@settings(max_examples=500, deadline=None)
def test_products_and_prints_match_reference(m1, m2, a, b, p, q):
    cases = (
        (Monomial.mul, reference.monomial_mul, reference.monomial_repr, m1, m2),
        (AbsorptivePoly.mul, reference.absorptive_mul, reference.absorptive_repr, a, b),
        (NatPoly.mul, reference.natpoly_mul, reference.natpoly_repr, p, q),
    )
    for mul, ref_mul, ref_repr, x, y in cases:
        assert repr(x) == ref_repr(x)
        for args in ((x, y), (y, x), (x, x)):
            got, want = _outcome(mul, *args), _outcome(ref_mul, *args)
            assert got == want, args
            if got[0] == "value" and got[1] is not None:
                assert repr(got[1]) == ref_repr(want[1])


def _assert_matches_reference(cases):
    for mul, ref_mul, ref_repr, x, y in cases:
        assert repr(x) == ref_repr(x)
        for args in ((x, y), (y, x), (x, x)):
            got, want = _outcome(mul, *args), _outcome(ref_mul, *args)
            assert got == want, args
            if got[0] == "value" and got[1] is not None:
                assert repr(got[1]) == ref_repr(want[1])


def test_products_over_seventy_variables_match_reference():
    """70 ranks of 34 bits each: packed monomials of over 2,000 bits, with
    dual pairs, exponents near the cap and factors at both ends of the key."""
    names = [f"v{i:02d}" for i in range(30)]
    names += [lit_var("R", (i,), pos) for i in range(20) for pos in (True, False)]
    rng = random.Random(70)
    near_cap = (EXPONENT_CAP // 2, EXPONENT_CAP - 1, EXPONENT_CAP)

    def exp():
        return rng.choice(near_cap) if rng.random() < 0.03 else rng.randrange(1, 4)

    def mono(pool):
        return Monomial((v, exp()) for v in rng.sample(pool, rng.randrange(1, 7)))

    for _ in range(30):
        # Each side covers one half of the variables, so the N[X] products
        # rank all 70 (the absorptive ones lose a few ranks to pruning).
        sides = []
        for half in (names[0::2], names[1::2]):
            ms = [Monomial((v, 1) for v in half[i : i + 7]) for i in range(0, 35, 7)]
            ms += [mono(names) for _ in range(rng.randrange(1, 6))]
            sides.append(ms)
        a, b = (AbsorptivePoly(ms) for ms in sides)
        p, q = (NatPoly((m, rng.randrange(1, 4)) for m in ms) for ms in sides)
        assert len(p.support() | q.support()) == 70
        _assert_matches_reference(
            (
                (Monomial.mul, reference.monomial_mul, reference.monomial_repr,
                 mono(names), mono(names)),
                (AbsorptivePoly.mul, reference.absorptive_mul, reference.absorptive_repr, a, b),
                (NatPoly.mul, reference.natpoly_mul, reference.natpoly_repr, p, q),
            )
        )


def _strictly_canonical(monomials):
    keys = list(map(reference._mono_sort_key, monomials))
    return all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


@given(_ref_spoly, _ref_spoly, _ref_natpoly, _ref_natpoly)
@settings(max_examples=300, deadline=None)
def test_products_are_in_canonical_order(a, b, p, q):
    for args in ((a, b), (b, a), (a, a)):
        got = _outcome(AbsorptivePoly.mul, *args)
        if got[0] == "value":
            assert _strictly_canonical(got[1].monomials)
    for args in ((p, q), (q, p), (p, p)):
        got = _outcome(NatPoly.mul, *args)
        if got[0] == "value":
            assert _strictly_canonical([m for m, _ in got[1].terms])


# Two disjoint pools of variables, strings and literals, with R(1) in one and
# its dual in the other, so that products of one side by the other are distinct
# monomials unless the quotient kills them.
_LEFT = ["b", "d", "e", lit_var("R", (1,)), lit_var("Q", (2,), False), lit_var("S", (1,))]
_RIGHT = ["a", "c", "f", lit_var("R", (1,), False), lit_var("Q", (1,)), lit_var("S", (2,), False)]


def _monomials(pool, min_size, max_size):
    """Monomials of min_size..max_size factors drawn from pool, a repeated
    draw raising an exponent above 1."""
    draws = st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size)
    return draws.map(lambda vs: Monomial((v, 1) for v in vs))


@st.composite
def _large_products(draw):
    """(kind, x, y, frozen product, frozen printer): x * y has at least
    _SPLIT_FROM terms.  The absorptive sides hold monomials of one degree, an
    antichain, so that only the quotient shrinks their product."""
    if draw(st.booleans()):
        x, y = (AbsorptivePoly(draw(st.lists(_monomials(pool, 3, 3), min_size=10,
                                             max_size=14, unique=True)))
                for pool in (_LEFT, _RIGHT))
        frozen = reference.absorptive_mul(x, y)
        printer = lambda p: repr(reference.RefAbsorptivePoly(p.monomials, prune=False))
    else:
        x, y = (NatPoly(draw(st.lists(st.tuples(_monomials(pool, 0, 3), st.integers(1, 3)),
                                      min_size=8, max_size=14, unique_by=lambda t: t[0])))
                for pool in (_LEFT, _RIGHT))
        frozen = reference.natpoly_mul(x, y)
        printer = lambda p: repr(reference.RefNatPoly(p.terms))
    assume(len(frozen.terms) >= _SPLIT_FROM)
    return type(x), x, y, frozen, printer


@given(_large_products())
@settings(max_examples=150, deadline=None)
def test_large_products_read_as_decoded_ones(case):
    """A product of _SPLIT_FROM terms or more prints as the frozen printer
    prints the frozen product, and its terms, equality, hash, degree and
    support are the frozen product's, whether it is printed or read first."""
    kind, x, y, frozen, printer = case
    text = printer(frozen)
    printed_first, read_first = kind.mul(x, y), kind.mul(x, y)
    assert hasattr(printed_first, "_packed") and hasattr(read_first, "_packed")
    assert repr(printed_first) == text
    assert read_first.terms == frozen.terms
    for p in (printed_first, read_first):
        assert repr(p) == text
        assert p.terms == frozen.terms
        assert p == frozen and frozen == p and hash(p) == hash(frozen)
        assert p.degree() == frozen.degree() and p.support() == frozen.support()
        assert not hasattr(p, "_packed")  # decoding dropped the packed form


# Values each variable of a specialization may take: zero too, so that a dual
# pair is sometimes consistent, and None for a variable left unassigned.
_TARGETS = (
    (S3, (0, 1, 2, None)),
    (VITERBI, (Fraction(0), *VITERBI_GRID, None)),
    (NATINF, (0, 1, 2, 3, INF, None)),
)


def _view(x):
    """What a caller can observe of a value, live or frozen."""
    if isinstance(x, (AbsorptivePoly, reference.RefAbsorptivePoly)):
        return "absorptive", x.monomials, repr(x), x.degree(), x.support()
    if isinstance(x, (NatPoly, reference.RefNatPoly)):
        return "nat", x.terms, repr(x), x.degree(), x.support()
    return x


def _same_outcome(fn, ref_fn, *pairs):
    """fn on the live sides of the (live, frozen) argument pairs gives what
    ref_fn gives on the frozen sides: the same value, or the same error."""
    live_args, ref_args = zip(*pairs) if pairs else ((), ())
    got, want = _outcome(fn, *live_args), _outcome(ref_fn, *ref_args)
    if got[0] == want[0] == "value":
        assert _view(got[1]) == _view(want[1]), pairs
    else:
        assert got == want, pairs


def _assert_matches_frozen(cls, ref_cls, x, y, data):
    """x and y are (live, frozen) pairs of one polynomial kind."""
    _same_outcome(cls.zero, ref_cls.zero)
    _same_outcome(cls.one, ref_cls.one)
    for v in ("u", _VARS[3], _VARS[4]):
        _same_outcome(cls.var, ref_cls.var, (v, v))
    for a, b in ((x, y), (y, x), (x, x)):
        _same_outcome(cls.add, ref_cls.add, a, b)
        _same_outcome(cls.mul, ref_cls.mul, a, b)
        assert a[0].leq(b[0]) == a[1].leq(b[1])
        assert (a[0] == b[0]) == (a[1] == b[1])
        assert (a[0] == b[0]) <= (hash(a[0]) == hash(b[0]))
    support = sorted(x[0].support() | y[0].support(), key=var_sort_key)
    for target, values in _TARGETS:
        drawn = data.draw(st.lists(st.sampled_from(values), min_size=len(support),
                                   max_size=len(support)))
        assignment = {v: val for v, val in zip(support, drawn) if val is not None}
        for poly in (x, y):
            _same_outcome(lambda p: specialize(p, assignment, target),
                          lambda p: reference.ref_specialize(p, assignment, target), poly)


def _assert_kinds_match_frozen(spolys, natpolys, data):
    """Both kinds' (live, frozen) pairs, two of each."""
    for live, ref in spolys + natpolys:
        assert _view(live) == _view(ref)
    _assert_matches_frozen(AbsorptivePoly, reference.RefAbsorptivePoly, *spolys, data)
    _assert_matches_frozen(NatPoly, reference.RefNatPoly, *natpolys, data)
    for (a, ref_a), (p, ref_p) in zip(spolys, natpolys):
        assert (a == p) == (ref_a == ref_p) and (p == a) == (ref_p == ref_a)


_coefficient = st.integers(min_value=0, max_value=4)


@given(st.lists(_mono, max_size=4), st.lists(_mono, max_size=4),
       st.lists(st.tuples(_mono, _coefficient), max_size=4),
       st.lists(st.tuples(_mono, _coefficient), max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_polynomials_match_frozen_classes(ms1, ms2, ts1, ts2, data):
    spolys = [(AbsorptivePoly(ms), reference.RefAbsorptivePoly(ms)) for ms in (ms1, ms2)]
    natpolys = [(NatPoly(ts), reference.RefNatPoly(ts)) for ts in (ts1, ts2)]
    _assert_kinds_match_frozen(spolys, natpolys, data)
    for c in (0, 1, 3, -1):
        _same_outcome(NatPoly.const, reference.RefNatPoly.const, (c, c))
    _same_outcome(NatPoly, reference.RefNatPoly, ([(Monomial.unit(), -1)],) * 2)
    x = Monomial.var("x")
    _same_outcome(lambda p: specialize(p, {"x": 1}, S3),
                  lambda p: reference.ref_specialize(p, {"x": 1}, S3), (x, x))


@given(st.integers(min_value=0), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_random_values_match_frozen_classes(seed, nonzero, data):
    rng = random.Random(seed)
    a, b = (SPOLY.random_value(rng, nonzero) for _ in range(2))
    p, q = (NATPOLY.random_value(rng, nonzero) for _ in range(2))
    spolys = [(x, reference.RefAbsorptivePoly(x.monomials)) for x in (a, b)]
    natpolys = [(x, reference.RefNatPoly(x.terms)) for x in (p, q)]
    _assert_kinds_match_frozen(spolys, natpolys, data)


# Exponents at the edge of the guard-bit absorption test on packed keys: a
# field at EXPONENT_CAP has bit 32 set, one at EXPONENT_CAP - 1 its low 32
# bits full, and either beside a small one differs from it in every bit.
_edge_exp = st.sampled_from((1, 2, 3, EXPONENT_CAP - 1, EXPONENT_CAP))
_edge_mono = st.lists(st.tuples(st.sampled_from(_VARS), _edge_exp), max_size=4).map(
    lambda pairs: Monomial(dict(pairs).items())
)


def _absorbed_variant(m, var, bump):
    """m with the exponent of ``var`` raised by 1 + bump, up to the cap: a
    monomial that m absorbs."""
    exps = dict(m.exps)
    exps[var] = min(exps.get(var, 0) + 1 + bump, EXPONENT_CAP)
    return Monomial(exps.items())


@st.composite
def _absorbing_lists(draw):
    """Monomials, some of them absorbed by others, in any order."""
    base = draw(st.lists(_edge_mono, max_size=5))
    out = list(base)
    for m in base:
        if draw(st.booleans()):
            out.append(_absorbed_variant(m, draw(st.sampled_from(_VARS)), draw(_edge_exp)))
    return draw(st.permutations(out))


def _assert_absorptive_kernel_matches_frozen(ms1, ms2):
    """The constructor, add, mul, leq and collapse_exponents on two lists of
    monomials give what the frozen prune and product give."""
    sides = [(AbsorptivePoly(ms), reference.RefAbsorptivePoly(ms)) for ms in (ms1, ms2)]
    for live, ref in sides:
        assert _view(live) == _view(ref)
        _same_outcome(collapse_exponents, reference.ref_collapse_exponents, (live, ref))
    for x, y in ((sides[0], sides[1]), (sides[1], sides[0]), (sides[0], sides[0])):
        _same_outcome(AbsorptivePoly.add, reference.RefAbsorptivePoly.add, x, y)
        _same_outcome(AbsorptivePoly.mul, reference.RefAbsorptivePoly.mul, x, y)
        _same_outcome(AbsorptivePoly.mul, reference.absorptive_mul, (x[0], x[0]), (y[0], y[0]))
        above = [y, (x[0].add(y[0]), x[1].add(y[1]))]
        product = _outcome(AbsorptivePoly.mul, x[0], y[0])
        if product[0] == "value":
            below = (product[1], x[1].mul(y[1]))
            above.append(x)
            assert below[0].leq(x[0]) == below[1].leq(x[1])
            assert x[0].leq(below[0]) == x[1].leq(below[1])
        for z in above:
            assert x[0].leq(z[0]) == x[1].leq(z[1]), (x, z)


@given(_absorbing_lists(), _absorbing_lists())
@settings(max_examples=400, deadline=None)
def test_absorptive_kernel_matches_frozen_prune(ms1, ms2):
    _assert_absorptive_kernel_matches_frozen(ms1, ms2)


def test_absorptive_kernel_over_seventy_variables_matches_frozen_prune():
    """70 ranks, so packed keys of over 2,000 bits, with absorbed variants,
    dual pairs and exponents at the cap and one below it."""
    names = [f"v{i:02d}" for i in range(30)]
    names += [lit_var("R", (i,), pos) for i in range(20) for pos in (True, False)]
    rng = random.Random(71)
    edge = (EXPONENT_CAP - 1, EXPONENT_CAP)

    def exp():
        return rng.choice(edge) if rng.random() < 0.05 else rng.randrange(1, 4)

    def monomials(pool):
        ms = [Monomial((v, exp()) for v in rng.sample(pool, rng.randrange(1, 8)))
              for _ in range(rng.randrange(1, 7))]
        ms += [_absorbed_variant(m, rng.choice(names), rng.randrange(3))
               for m in ms if rng.random() < 0.5]
        rng.shuffle(ms)
        return ms

    for _ in range(40):
        # Each side covers one half of the variables, so both together rank all 70.
        sides = [[Monomial((v, 1) for v in half[i : i + 7]) for i in range(0, 35, 7)]
                 + monomials(names) for half in (names[0::2], names[1::2])]
        assert len({v for ms in sides for m in ms for v in m.variables()}) == 70
        _assert_absorptive_kernel_matches_frozen(*sides)
