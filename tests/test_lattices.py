"""Finite lattices, bottom adjunction, and weakly separating homomorphisms."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lattices as ref
from semlog.errors import PreconditionError
from semlog.lattices import (
    FiniteLattice,
    LatticeSemiring,
    adjoin_bottom,
    chain_lattice,
    diamond_lattice,
    find_weakly_separating_hom,
    parse_lattice_file,
)
from semlog.semirings import check_hom


def test_chain_and_diamond_build():
    c = chain_lattice(["0", "m", "1"])
    assert c.bottom == "0" and c.top == "1"
    assert c.join("0", "m") == "m" and c.meet("m", "1") == "m"
    d = diamond_lattice()
    assert d.join("a", "b") == "1" and d.meet("a", "b") == "0"
    assert not c.has_zero_divisors()
    assert d.has_zero_divisors()


def test_nondistributive_rejected():
    # M3: three incomparable mid elements
    with pytest.raises(PreconditionError, match="distributive|join|meet"):
        FiniteLattice(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )


def test_parse_lattice_file():
    lat = parse_lattice_file("elements: 0 a 1\nleq: 0 a\nleq: a 1\n")
    assert lat.bottom == "0" and lat.top == "1"
    with pytest.raises(PreconditionError):
        parse_lattice_file("leq: a b\n")


def test_adjoin_bottom_s3_gives_4_chain():
    s3 = chain_lattice(["0", "e", "1"])
    starred, h = adjoin_bottom(s3)
    assert len(starred) == 4
    assert starred.bottom == "0*"
    assert h("0*") == "0"
    assert h("e") == "e"
    # new bottom annihilates under meet
    for x in starred.elements:
        assert starred.meet("0*", x) == "0*"
    assert not starred.has_zero_divisors()


def test_adjoin_bottom_boolean_gives_3_chain():
    two = chain_lattice(["0", "1"])
    starred, _ = adjoin_bottom(two)
    assert len(starred) == 3
    sr = LatticeSemiring(starred)
    assert sr.linearly_ordered


def _brute_force_separating(lattice, s, t):
    """Independent oracle: filter all |S3|^|L| maps by the homomorphism
    axioms and the four separation conditions."""
    elems = lattice.elements
    out = []
    for values in itertools.product((0, 1, 2), repeat=len(elems)):
        table = dict(zip(elems, values))
        if table[lattice.bottom] != 0 or table[lattice.top] != 2:
            continue
        if any(
            table[lattice.join(a, b)] != max(table[a], table[b])
            or table[lattice.meet(a, b)] != min(table[a], table[b])
            for a in elems
            for b in elems
        ):
            continue
        if set(e for e in elems if table[e] == 0) != {lattice.bottom}:
            continue
        if not table[s] > table[t]:
            continue
        subsets = [
            X for r in range(len(elems) + 1) for X in itertools.combinations(elems, r)
        ]

        def join_of(X):
            out = None
            for x in X:
                out = x if out is None else lattice.join(out, x)
            return out

        def meet_of(X):
            out = None
            for x in X:
                out = x if out is None else lattice.meet(out, x)
            return out

        if any(
            join_of(X) == s and all(table[x] != table[s] for x in X) for X in subsets
        ):
            continue
        if any(
            meet_of(X) == t and all(table[x] != table[t] for x in X) for X in subsets
        ):
            continue
        out.append(table)
    return out


def test_weakly_separating_on_s3_chain():
    lat = chain_lattice(["0", "e", "1"])
    oracle = _brute_force_separating(lat, "1", "e")
    # the identity map onto S3 qualifies
    assert {"0": 0, "e": 1, "1": 2} in oracle
    h = find_weakly_separating_hom(lat, "1", "e")
    assert h is not None
    table = {e: h(e) for e in lat.elements}
    assert table in oracle
    assert check_hom(h).ok


def test_weakly_separating_on_diamond_with_bottom():
    starred, _ = adjoin_bottom(diamond_lattice(), name="0*")
    oracle = _brute_force_separating(starred, "a", "b")
    assert oracle, "a separating map must exist here"
    h = find_weakly_separating_hom(starred, "a", "b")
    assert h is not None
    assert {e: h(e) for e in starred.elements} in oracle
    assert h("a") == 2 and h("b") in (0, 1)


def test_weakly_separating_preconditions():
    lat = chain_lattice(["0", "e", "1"])
    with pytest.raises(PreconditionError, match="not<="):
        find_weakly_separating_hom(lat, "e", "e")
    with pytest.raises(PreconditionError, match="not<="):
        find_weakly_separating_hom(lat, "e", "1")
    with pytest.raises(PreconditionError, match="divisors"):
        find_weakly_separating_hom(diamond_lattice(), "a", "b")
    big = chain_lattice([f"c{i}" for i in range(14)])
    box = FiniteLattice(*_chain_product((2, 3, 3), random.Random(0)))
    assert len(box) == 19
    for lat, s, t in ((big, "c5", "c2"), (box, "1.0.0", "0.2.2"), (box, "1.2.1", "1.1.2")):
        h = find_weakly_separating_hom(lat, s, t)
        assert check_hom(h).ok
        assert [x for x in lat.elements if h(x) == 0] == [lat.bottom]
        assert h(s) > h(t)


@pytest.mark.parametrize(
    "lattice",
    [chain_lattice(["0", "a", "b", "1"]), diamond_lattice(), adjoin_bottom(diamond_lattice())[0]],
    ids=["4chain", "diamond", "diamond*"],
)
def test_finite_continuity(lattice):
    elems = lattice.elements
    for t in elems:
        for k in (1, 2, 3, 4):
            for ss in itertools.product(elems, repeat=k):
                lhs = None
                for s in ss:
                    j = lattice.join(t, s)
                    lhs = j if lhs is None else lattice.meet(lhs, j)
                meet_all = None
                for s in ss:
                    meet_all = s if meet_all is None else lattice.meet(meet_all, s)
                assert lhs == lattice.join(t, meet_all)


def test_lattice_semiring_flags():
    sr = LatticeSemiring(diamond_lattice(), "diamond")
    assert sr.additively_idempotent and sr.absorptive and sr.multiplicatively_idempotent
    assert not sr.linearly_ordered
    chain = LatticeSemiring(chain_lattice(["0", "m", "1"]))
    assert chain.linearly_ordered


M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
N5 = (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


@st.composite
def _relations(draw):
    """Elements and leq pairs on 2-7 names: mostly a random acyclic relation,
    often with a least and a greatest name, sometimes with a cycle, an unknown
    name or a repeated element."""
    n = draw(st.integers(2, 7))
    names = draw(st.permutations([f"e{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    if draw(st.integers(0, 3)):
        pairs += [(names[0], x) for x in names[1:]]
    if draw(st.integers(0, 3)):
        pairs += [(x, names[-1]) for x in names[:-1]]
    if not draw(st.integers(0, 7)):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        pairs.append((names[j], names[i]))
    if not draw(st.integers(0, 9)):
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(st.sampled_from(names)), "zz"))
    pairs = draw(st.permutations(pairs))
    elements = draw(st.permutations(names))
    if not draw(st.integers(0, 9)):
        elements.append(elements[0])
    return elements, pairs


def _order_tables(build, elements, pairs):
    try:
        lat = build(elements, pairs)
    except PreconditionError as exc:
        return "raised", str(exc)
    els = lat.elements
    return lat.bottom, lat.top, {
        (a, b): (lat.join(a, b), lat.meet(a, b), lat.leq(a, b)) for a in els for b in els
    }


@settings(max_examples=300, deadline=None)
@given(_relations())
@example(M3)
@example(N5)
@example((["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")]))
def test_order_tables_agree_with_reference(relation):
    elements, pairs = relation
    new = _order_tables(FiniteLattice, elements, pairs)
    assert new == _order_tables(ref.FiniteLattice, elements, pairs)
    if new[0] != "raised":
        lat = FiniteLattice(elements, pairs)
        assert lat.join_irreducibles == tuple(
            j for j in lat.elements
            if j != lat.bottom and all(j in (a, b) for a in lat.elements for b in lat.elements
                                       if lat.join(a, b) == j)
        )


def _chain_product(lengths, rng):
    """The product of chains of the given lengths with a new bottom "z"
    adjoined, its elements ("i.j.k") in a shuffled order: (elements, pairs)."""
    points = list(itertools.product(*(range(k) for k in lengths)))
    name = {p: ".".join(map(str, p)) for p in points}
    pairs = [("z", name[points[0]])] + [
        (name[p], name[p[:i] + (p[i] + 1,) + p[i + 1:]])
        for p in points for i, k in enumerate(lengths) if p[i] + 1 < k
    ]
    elements = ["z"] + [name[p] for p in points]
    rng.shuffle(elements)
    return elements, pairs


CHAIN_PRODUCTS = [(k,) for k in range(2, 10)] + [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 2, 2)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHAIN_PRODUCTS), st.integers(0, 2**32))
def test_weakly_separating_hom_agrees_with_reference_search(lengths, seed):
    rng = random.Random(seed)
    elements, pairs = _chain_product(lengths, rng)
    lat, old = FiniteLattice(elements, pairs), ref.FiniteLattice(elements, pairs)
    els, bot = lat.elements, lat.bottom
    unordered = [(s, t) for s in els for t in els if not lat.leq(s, t)]
    subsets = [X for r in range(1, len(els) + 1) for X in itertools.combinations(els, r)]
    joins = {X: functools.reduce(lat.join, X) for X in subsets}
    meets = {X: functools.reduce(lat.meet, X) for X in subsets}
    for s, t in rng.sample(unordered, min(5, len(unordered))):
        table = {x: find_weakly_separating_hom(lat, s, t)(x) for x in els}
        expected = ref.find_weakly_separating_hom(old, s, t)
        assert table == {x: expected(x) for x in els}
        assert [x for x in els if table[x] == 0] == [bot] and table[lat.top] == 2
        assert all(
            table[lat.join(a, b)] == max(table[a], table[b])
            and table[lat.meet(a, b)] == min(table[a], table[b])
            for a in els for b in els
        )
        assert table[s] > table[t]
        assert all(any(table[x] == table[s] for x in X) for X in subsets if joins[X] == s)
        assert all(any(table[x] == table[t] for x in X) for X in subsets if meets[X] == t)
