"""Game trees, strategies, sum-of-strategies, optimality, translation."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from corpus import UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog import games
from semlog.errors import GuardExceeded, PreconditionError
from semlog.evaluation import evaluate
from semlog.formulas import Atom, Eq, Exists, make_or, metrics, qr, size
from semlog.games import (
    STRATEGY_GUARD,
    Strategy,
    build_game_tree,
    c_constants,
    classify,
    compact_almost_existential,
    count_strategies,
    enumerate_strategies,
    eval_strategy,
    literal_elements,
    optimal,
    random_strategy,
    strategy_from_choices,
    sum_of_strategies_check,
    swap_instantiation,
    translate_almost_existential,
    translate_strategy,
    validate_strategy,
    witnesses,
)
from semlog.interpretations import (
    Vocabulary,
    Interpretation,
    enumerate_interpretations,
    random_interpretation,
)
from semlog.parser import parse
from semlog.polynomials import SPOLY
from semlog.preservation import S3_VALUES, VITERBI_GRID, has_existential_optimal
from semlog.provenance import pi_n
from semlog.semirings import NAT, S3, VITERBI


def test_tree_shapes_and_strategy_counts():
    tree = build_game_tree(parse("E x. R(x)"), 2)
    assert count_strategies(tree) == 2
    strategies = list(enumerate_strategies(tree))
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R, {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 4)}
    )
    values = sorted(eval_strategy(pi, s) for s in strategies)
    assert values == [Fraction(1, 4), Fraction(1, 2)]
    assert VITERBI.sum(values) == evaluate(pi, parse("E x. R(x)"))


def test_top_leaf_strategy_is_one():
    tree = build_game_tree(parse("true"), 2)
    (s,) = enumerate_strategies(tree)
    pi = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_R, {})
    assert eval_strategy(pi, s) == VITERBI.one


def test_eval_strategy_checks_equality_constants():
    """A hand-built equality leaf is valued as `evaluate` values it: an
    element outside the universe is an error, not a silent comparison."""
    pi = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_R, {})
    inside = Strategy(Eq("x", 1), (("x", 1),), None, ())
    assert eval_strategy(pi, inside) == evaluate(pi, inside.formula, {"x": 1}) == VITERBI.one
    outside = Strategy(Eq("x", 5, positive=False), (("x", 1),), None, ())
    for value in (lambda: evaluate(pi, outside.formula, {"x": 1}),
                  lambda: eval_strategy(pi, outside)):
        with pytest.raises(PreconditionError, match="not in universe"):
            value()


def test_fo_flavor_quantifies_over_everything():
    # E x. A y. R(x) over two elements, both valued 1/2: each strategy 1/4
    psi = parse("E x. A y. R(x)")
    tree = build_game_tree(psi, 2)
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R, {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2)}
    )
    values = [eval_strategy(pi, s) for s in enumerate_strategies(tree)]
    assert values == [Fraction(1, 4), Fraction(1, 4)]


def test_sum_of_strategies_on_s3_corpus():
    rng = random.Random(23)
    for _ in range(15):
        psi = random_foneq_sentence(rng, max_qr=2)
        for n in (1, 2):
            for pi in enumerate_interpretations(S3, UNARY_RQ, n, S3_VALUES):
                rep = sum_of_strategies_check(pi, psi)
                assert rep.ok, (psi, pi, rep)


def test_sum_of_strategies_with_multiplicity_in_nat():
    # A x. E y. R(y) over [2] in the naturals: strategies pick y per branch
    psi = parse("A x. E y. R(y)")
    pi = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 2, ("R", (2,)): 3})
    rep = sum_of_strategies_check(pi, psi)
    # (2+3)^2 = 25 distributed over 4 strategies: 4, 6, 6, 9
    assert rep.ok and rep.strategy_count == 4 and rep.eval_value == 25


def test_sum_of_strategies_values_each_shared_leaf_once(monkeypatch):
    """The strategies share the pools of leaves and of the and/forall nodes'
    children, and a valued enumeration values each pool once, when it is
    made: it reads each distinct leaf once (6 here), not once for each of its
    24 occurrences in the 12 strategies, and multiplies out each pooled
    product once; a read that raises still raises."""
    psi = parse("E! x. A! y. (R(x) | R(y))")
    pi = random_interpretation(VITERBI, UNARY_R, 3, VITERBI_GRID, random.Random(5))
    reads = []
    leaf_reader = games._leaf_reader

    def counting_reader(interp):
        read = leaf_reader(interp)
        return lambda f, env: reads.append(f) or read(f, env)

    monkeypatch.setattr(games, "_leaf_reader", counting_reader)
    tree = build_game_tree(psi, 3)
    valued = list(enumerate_strategies(tree, STRATEGY_GUARD, pi))
    leaves = {id(leaf) for s, _ in valued for leaf in Strategy.leaves_of(s)}
    occurrences = sum(len(Strategy.leaves_of(s)) for s, _ in valued)
    assert len(valued) == 12 and len(reads) == len(leaves) == 6 and occurrences == 24
    assert VITERBI.sum([v for _, v in valued]) == evaluate(pi, psi)
    assert sum_of_strategies_check(pi, psi).strategy_count == 12

    # 16 strategies, each the product of two of the 8 pooled A y strategies,
    # each of those the product of two leaves: 16 + 8 products, not 16 * 3
    muls = []
    monkeypatch.setattr(VITERBI, "mul", lambda a, b, mul=VITERBI.mul: muls.append(1) or mul(a, b))
    phi, small = parse("A x. A y. (R(x) | R(y))"), pi.restrict((1, 2))
    valued_phi = list(enumerate_strategies(build_game_tree(phi, 2), STRATEGY_GUARD, small))
    assert len(valued_phi) == 16 and len(muls) == 24
    assert VITERBI.sum([v for _, v in valued_phi]) == evaluate(small, phi)

    reads_x3 = next(s for s, _ in valued if s.tag == 3)  # R(x) at x = 3 under both y
    with pytest.raises(PreconditionError):
        eval_strategy(small, reads_x3)
    with pytest.raises(PreconditionError):
        list(enumerate_strategies(tree, STRATEGY_GUARD, small))


def test_sum_of_strategies_guard():
    psi = parse("A! y. E! z. R(z)")
    pi = random_interpretation(VITERBI, UNARY_R, 8, VITERBI_GRID, random.Random(0))
    with pytest.raises(GuardExceeded):
        sum_of_strategies_check(pi, psi, guard=100)


def test_optimal_matches_eval_and_counts_ties():
    pi = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R, {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 4)}
    )
    res = optimal(pi, parse("E x. R(x)"))
    assert res.value == Fraction(1, 2)
    assert res.strategy.tag == 1
    assert res.all_optimal_count == 1

    # both elements 1/2 under E x. A y. R(x): two tied optimal strategies
    pi2 = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R, {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2)}
    )
    res2 = optimal(pi2, parse("E x. A y. R(x)"))
    assert res2.value == Fraction(1, 4)
    assert res2.all_optimal_count == 2
    streamed = list(res2.stream_optimal())
    assert len(streamed) == 2
    assert all(eval_strategy(pi2, s) == Fraction(1, 4) for s in streamed)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_optimal_stream_lists_no_pool_beyond_the_guard(n):
    # every or node ties, so the pool under each child of the root holds
    # 2^(n*n) strategies: 65,536 at n = 4, 2^25 at n = 5
    universe = tuple(range(1, n + 1))
    pi = Interpretation.from_atoms(
        VITERBI, universe, UNARY_R, {("R", (b,)): Fraction(1, 2) for b in universe})
    res = optimal(pi, parse("A x. A y. A z. (R(x) | R(x))"))
    if n == 5:
        with pytest.raises(GuardExceeded):
            next(res.stream_optimal())
        return
    first = next(res.stream_optimal())
    validate_strategy(first, n)
    assert eval_strategy(pi, first) == res.value


def test_optimal_value_equals_eval_on_corpus():
    rng = random.Random(29)
    for _ in range(20):
        psi = random_foneq_sentence(rng, max_qr=2)
        n = rng.randrange(1, 3)
        pi = random_interpretation(VITERBI, UNARY_RQ, n, VITERBI_GRID, rng)
        tree = build_game_tree(psi, pi.universe)
        if count_strategies(tree) == 0:
            # empty exists range under a forall: no strategies, value zero
            assert evaluate(pi, psi) == VITERBI.zero
            with pytest.raises(PreconditionError, match="no strategy"):
                optimal(pi, psi)
            continue
        res = optimal(pi, psi)
        assert res.value == evaluate(pi, psi)
        assert eval_strategy(pi, res.strategy) == res.value


def test_optimal_rejects_nonlinear_semirings():
    from semlog.lattices import LatticeSemiring, diamond_lattice

    sr = LatticeSemiring(diamond_lattice(), "diamond")
    pi = Interpretation.from_atoms(sr, (1,), UNARY_R, {("R", (1,)): "a"})
    with pytest.raises(PreconditionError, match="linearly ordered"):
        optimal(pi, parse("E x. R(x)"))
    with pytest.raises(PreconditionError, match="linearly ordered"):
        optimal(
            Interpretation.from_atoms(NAT, (1,), UNARY_R, {("R", (1,)): 1}),
            parse("E x. R(x)"),
        )


def test_classification_examples():
    # A!y E!z R(z) admits no existential strategy; almost existential ones
    # exist (the inner witness can always dodge y's instantiation)
    tree = build_game_tree(parse("A! y. E! z. R(z)"), 2)
    kinds = {classify(s).cls for s in enumerate_strategies(tree)}
    assert "existential" not in kinds
    assert "almost_existential" in kinds
    # strategies for A!y Q(y) rely on forall
    tree2 = build_game_tree(parse("A! y. Q(y)"), 2)
    for s in enumerate_strategies(tree2):
        assert classify(s).cls == "relies_on_forall"
    # strategies for E!x R(x) are existential
    tree3 = build_game_tree(parse("E! x. R(x)"), 2)
    for s in enumerate_strategies(tree3):
        stats = classify(s)
        assert stats.cls == "existential"
        assert stats.a_exists == stats.a_lit


def test_validate_strategy_catches_malformed_trees():
    tree = build_game_tree(parse("E x. R(x)"), 2)
    (s, s2) = enumerate_strategies(tree)
    validate_strategy(s, 2)
    broken = Strategy(s.formula, s.env, 3, s.children)
    with pytest.raises(PreconditionError):
        validate_strategy(broken, 2)


def test_swap_instantiation():
    tree = build_game_tree(parse("E! x. R(x)"), 3)
    s = strategy_from_choices(tree.root, lambda node: 1)  # witness 2
    out = swap_instantiation(s, 2, 3)
    assert out.tag == 3
    validate_strategy(out, 3)
    assert swap_instantiation(s, 2, 2) is s
    rng = random.Random(31)
    for _ in range(100):
        psi = random_foneq_sentence(rng, max_qr=2)
        n = rng.randrange(max(1, qr(psi)), 4)
        tree = build_game_tree(psi, n)
        strat = random_strategy(tree, rng)
        b, c = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        swapped = swap_instantiation(strat, b, c)
        validate_strategy(swapped, n)


def _witness_strategy(psi_text, universe, witness):
    tree = build_game_tree(parse(psi_text), universe)
    idx = tree.root.tags.index(witness)
    return strategy_from_choices(
        tree.root, lambda node: idx if node is tree.root else 0
    )


def test_translate_strategy_keeps_value_when_witness_renamed():
    # existential strategy touching only element-1 literals, witness n+r+1
    psi = parse("E! x. (true | A! y. R(x))")
    m = metrics(psi)
    r = m.qr
    n = 2 ** (m.size + 1) + r + 1
    big = n + r + 1
    tree = build_game_tree(parse("E! x. (true | A! y. R(x))"), big)
    idx = tree.root.tags.index(big)
    strat = strategy_from_choices(
        tree.root, lambda node: idx if node.kind == "exists" else 0
    )
    pin_big = pi_n(UNARY_R, big, "absorptive")
    pin_small = pi_n(UNARY_R, n + r, "absorptive")
    tstar, dropped = translate_strategy(strat, n, r)
    assert eval_strategy(pin_big, strat) == eval_strategy(pin_small, tstar) == SPOLY.one
    assert dropped == []
    assert tstar.tag <= n + r


def test_translate_strategy_drops_forall_branch_strictly():
    # A!-branch never mentioned in literals: dropping one child lowers the
    # exponent, a strict absorption-order increase
    psi = parse("E! x. A! y. R(x)")
    m = metrics(psi)
    r = m.qr
    n = 2 ** (m.size + 1) + r + 1
    big = n + r + 1
    strat = _witness_strategy("E! x. A! y. R(x)", big, 1)
    pin_big = pi_n(UNARY_R, big, "absorptive")
    pin_small = pi_n(UNARY_R, n + r, "absorptive")
    before = eval_strategy(pin_big, strat)
    tstar, dropped = translate_strategy(strat, n, r)
    after = eval_strategy(pin_small, tstar)
    assert SPOLY.leq(before, after) and before != after
    assert len(dropped) == 1
    v, w = dropped[0]
    assert SPOLY.leq(before, SPOLY.mul(after, eval_strategy(pin_big, w)))
    assert before.monomials[0].exponent(("R", (1,), True)) == big - 1
    assert after.monomials[0].exponent(("R", (1,), True)) == big - 2


def test_translate_strategy_preconditions():
    strat = _witness_strategy("E! x. A! y. R(x)", 6, 6)
    with pytest.raises(PreconditionError, match="support"):
        translate_strategy(strat, 3, 2)
    strat2 = _witness_strategy("E! x. A! y. R(x)", 6, 1)
    with pytest.raises(PreconditionError, match="bound"):
        translate_strategy(strat2, 3, 2)


def test_translate_strategy_inequalities_on_generated_corpus():
    rng = random.Random(37)
    shapes = [
        "E! x. A! y. R(x)",
        "E! x. (true | A! y. R(x))",
        "E! x. (R(x) | A! y. R(x))",
        "E! x. A! y. (R(x) | R(y))",
    ]
    done = 0
    for text in shapes:
        psi = parse(text)
        m = metrics(psi)
        r = m.qr
        n = 2 ** (m.size + 1) + r + 1
        big = n + r + 1
        tree = build_game_tree(psi, big)
        pin_big = pi_n(UNARY_R, big, "absorptive")
        pin_small = pi_n(UNARY_R, n + r, "absorptive")
        for _ in range(12):
            strat = random_strategy(tree, rng)
            if any(e > n for e in literal_elements(strat)):
                continue
            before = eval_strategy(pin_big, strat)
            tstar, dropped = translate_strategy(strat, n, r)
            after = eval_strategy(pin_small, tstar)
            assert SPOLY.leq(before, after)
            for v, w in dropped:
                assert SPOLY.leq(before, SPOLY.mul(after, eval_strategy(pin_big, w)))
            done += 1
    assert done >= 20


def test_c_constants():
    assert c_constants(4, 0) == 0
    assert c_constants(4, 1) == 2 ** 5
    c1 = 2 ** 5
    assert c_constants(4, 2) == 2 ** 5 * ((c1 + 1) * c1 + 1)


def test_compaction_bounds_witness_spread():
    psi = parse("A! y. E! z. R(z)")
    n = 8
    tree = build_game_tree(psi, n)
    counter = [0]

    def chooser(node):
        if node.kind == "exists":
            counter[0] += 1
            return counter[0] % len(node.children)
        return 0

    spread = strategy_from_choices(tree.root, chooser)
    assert len(witnesses(spread)) > 2
    comp = compact_almost_existential(spread, metrics(psi).qr_forall, n)
    validate_strategy(comp, n)
    pin = pi_n(UNARY_R, n, "absorptive")
    assert eval_strategy(pin, comp).support() <= eval_strategy(pin, spread).support()
    assert len(witnesses(comp)) <= 2
    assert classify(comp).cls != "relies_on_forall"


def test_compaction_rejects_relying_strategies():
    tree = build_game_tree(parse("A! y. Q(y)"), 3)
    s = strategy_from_choices(tree.root, lambda n: 0)
    with pytest.raises(PreconditionError, match="relies"):
        compact_almost_existential(s, 1, 3)


def biased_random_strategy(tree, rng, low_bias=0.75):
    """Random strategy whose choices prefer early (small-element) children,
    making support-confined samples common."""

    def chooser(node):
        k = len(node.children)
        if k > 1 and rng.random() < low_bias:
            return rng.randrange((k + 1) // 2)
        return rng.randrange(k)

    return strategy_from_choices(tree.root, chooser)


def test_translate_almost_existential_on_generated_cases():
    rng = random.Random(41)
    shapes = ["A! y. E! z. R(z)", "A! y. (Q(y) | E! z. R(z))", "E! z. R(z)"]
    done = 0
    for text in shapes:
        psi = parse(text)
        vocab = Vocabulary.of_formula(psi)
        r = qr(psi)
        n = 5
        tree = build_game_tree(psi, n + r)
        pin_small = pi_n(vocab, n, "absorptive")
        pin_big = pi_n(vocab, n + r, "absorptive")
        for _ in range(80):
            strat = biased_random_strategy(tree, rng)
            if any(e > n for e in literal_elements(strat)):
                continue
            if classify(strat).cls == "relies_on_forall":
                continue
            out = translate_almost_existential(strat, n)
            validate_strategy(out, n)
            assert classify(out).cls != "relies_on_forall"
            sup_small = eval_strategy(pin_small, out).support()
            sup_big = eval_strategy(pin_big, strat).support()
            assert sup_small <= sup_big, (text, sup_small, sup_big)
            done += 1
    assert done >= 100


def test_existential_strategies_match_bottom_rewrite():
    """Replacing every universal subformula by false puts the existential
    strategies of the original in value-preserving correspondence with the
    false-free strategies of the rewrite."""
    from collections import Counter

    from semlog.formulas import FALSE, Bottom, find_subformula_paths
    from semlog.formulas import Forall as F
    from semlog.formulas import substitute_subformula

    rng = random.Random(61)
    texts = [
        "(A! x. R(x)) | E! x. R(x)",
        "E! x. (R(x) | A! y. Q(y))",
        "(E! x. R(x)) & ((A! y. Q(y)) | E! y. Q(y))",
    ]
    for text in texts:
        psi = parse(text)
        chi = psi
        while True:
            paths = find_subformula_paths(chi, lambda g: isinstance(g, F))
            if not paths:
                break
            chi = substitute_subformula(chi, paths[0], FALSE)
        for n in (1, 2):
            pi = random_interpretation(VITERBI, UNARY_RQ, n, VITERBI_GRID, rng)
            tree_psi = build_game_tree(psi, pi.universe)
            tree_chi = build_game_tree(chi, pi.universe)
            ex_values = Counter(
                eval_strategy(pi, s)
                for s in enumerate_strategies(tree_psi)
                if classify(s).cls == "existential"
            )
            chi_values = Counter(
                eval_strategy(pi, s)
                for s in enumerate_strategies(tree_chi)
                if not any(
                    isinstance(leaf.formula, Bottom) for leaf in Strategy.leaves_of(s)
                )
            )
            assert ex_values == chi_values, (text, n)


def test_strategy_tree_size_bound():
    # a strategy truncated at universal nodes has < 2^|psi| inner nodes
    rng = random.Random(43)
    for _ in range(30):
        psi = random_foneq_sentence(rng, max_qr=2)
        n = rng.randrange(max(1, qr(psi)), 4)
        tree = build_game_tree(psi, n)
        strat = random_strategy(tree, rng)

        def truncated_inner_count(node):
            if node.kind == "forall" or not node.children:
                return 0
            return 1 + sum(truncated_inner_count(c) for c in node.children)

        assert truncated_inner_count(strat) < 2 ** size(psi)


def test_game_walks_return_on_a_disjunction_wider_than_the_recursion_limit():
    """The game tree and every walk over it or its strategies keep their own
    stack, so they return at the default recursion limit."""
    f = Exists("x", make_or([Atom("R", ("x",))] * 5000))
    pi = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_R, {("R", (2,)): Fraction(1, 3)})
    tree = build_game_tree(f, 2)
    # per element: 4,999 or nodes over one shared leaf, unshared 5,000 leaves
    assert tree.node_count == 1 + 2 * (4999 + 5000)
    assert len(tree.order) == 1 + 2 * (4999 + 1) and tree.order[-1] is tree.root
    assert count_strategies(tree) == 10000
    res = optimal(pi, f)
    assert (res.value, res.all_optimal_count) == (Fraction(1, 3), 5000)
    validate_strategy(res.strategy, 2)
    assert eval_strategy(pi, res.strategy) == res.value
    found, s = has_existential_optimal(pi, f)
    assert found and eval_strategy(pi, s) == res.value


def test_enumeration_over_a_wide_disjunction():
    f = Exists("x", make_or([Atom("R", ("x",))] * 1200))
    assert sum(1 for _ in enumerate_strategies(build_game_tree(f, 1))) == 1200


def _labels(tree):
    return tree.node_count, [(n.formula, n.env, n.kind, n.tags) for n in tree.order]


def test_the_last_game_tree_is_kept():
    """The same formula object over an equal universe with the same guard
    gets the same tree back; any other call builds the tree an unkept build
    makes, and the tree kept before is dropped."""
    f = parse("A! x. E! y. (R(x) | Q(y))")
    tree = build_game_tree(f, 3)
    assert build_game_tree(f, (1, 2, 3)) is tree
    assert build_game_tree(f, [1, 2, 3], guard=games.TREE_NODE_GUARD) is tree
    for g, universe, guard in [(f, (1, 2, 3, 4), games.TREE_NODE_GUARD),
                               (f, (1, 2, 3), 10**4),
                               (parse("A! x. E! y. (R(x) | Q(y))"), (1, 2, 3), games.TREE_NODE_GUARD)]:
        fresh = build_game_tree(g, universe, guard)
        assert fresh is not tree
        assert _labels(fresh) == _labels(games._build_game_tree(g, universe, guard))
        assert build_game_tree(g, universe, guard) is fresh
    assert build_game_tree(f, 3) is not tree


def test_at_most_one_game_tree_is_kept():
    f, g = parse("E x. R(x)"), parse("A x. R(x)")
    kept = weakref.ref(build_game_tree(f, 2))
    gc.collect()
    assert kept() is not None
    build_game_tree(g, 2)
    gc.collect()
    assert kept() is None
    # a build that raises keeps nothing, not even the tree kept before it
    kept = weakref.ref(build_game_tree(g, 2))
    with pytest.raises(PreconditionError):
        build_game_tree(parse("R(x)"), 2)
    gc.collect()
    assert kept() is None


def test_a_kept_tree_keeps_its_guard():
    f = parse("A! x. A! y. R(x) | Q(y)")
    nodes = 1 + 4 + 12 * 3
    tree = build_game_tree(f, 4, guard=nodes)
    assert tree.node_count == nodes
    with pytest.raises(GuardExceeded):
        build_game_tree(f, 4, guard=nodes - 1)
    again = build_game_tree(f, 4, guard=nodes)
    assert again is not tree and _labels(again) == _labels(tree)
    assert build_game_tree(f, 4, guard=nodes) is again


def _answers(interp, f):
    """What `optimal` and then `has_existential_optimal` say about f on interp."""
    res = optimal(interp, f)
    found, s = has_existential_optimal(interp, f)
    nodes = None if s is None else [(n.formula, n.env, n.tag) for n in games.strategy_nodes(s)]
    return res.value, res.all_optimal_count, found, nodes


def _counted_passes(monkeypatch):
    passes = []
    pass_once = games._optimal_table

    def counted(*args):
        passes.append(args[0])
        return pass_once(*args)

    monkeypatch.setattr(games, "_optimal_table", counted)
    return passes


FORALL_OR_Q = "(A! x. R(x)) | E! x. Q(x)"


def test_one_pass_answers_optimal_and_existential(monkeypatch):
    """`optimal` and then `has_existential_optimal` on one sentence object and
    one interpretation run the (value, ties) pass once between them, and its
    one product, at the forall node, is folded from the first child."""
    passes = _counted_passes(monkeypatch)
    muls = []
    monkeypatch.setattr(VITERBI, "mul", lambda a, b, mul=VITERBI.mul: muls.append(1) or mul(a, b))
    pi = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_RQ, {
        ("R", (1,)): Fraction(1), ("R", (2,)): Fraction(1), ("Q", (1,)): Fraction(1)})
    f = parse(FORALL_OR_Q)
    assert _answers(pi, f)[:3] == (Fraction(1), 2, True)
    assert passes == [VITERBI] and len(muls) == 1
    assert has_existential_optimal(pi, f)[0] and passes == [VITERBI]


def test_the_kept_tables_follow_the_interpretations_contents(monkeypatch):
    """The kept tables are keyed on what the interpretation holds, not on the
    object: after its table is changed the next call values the tree again,
    and an equal but distinct interpretation reads the kept tables.  Either
    way the answers are those of a copy of the sentence, which no kept tree
    or table serves."""
    atoms = {("R", (1,)): Fraction(1), ("R", (2,)): Fraction(1), ("Q", (1,)): Fraction(1, 2)}
    low = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_RQ, atoms)
    high = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_RQ, {**atoms, ("Q", (1,)): Fraction(1)})
    want_low, want_high = _answers(low, parse(FORALL_OR_Q)), _answers(high, parse(FORALL_OR_Q))
    assert want_low[2:] == (False, None) and want_high[2] is True

    passes = _counted_passes(monkeypatch)
    f = parse(FORALL_OR_Q)
    pi = Interpretation.from_atoms(VITERBI, (1, 2), UNARY_RQ, atoms)
    optimal(pi, f)
    pi.table.update(high.table)
    assert has_existential_optimal(pi, f)[0] is True and len(passes) == 2
    assert _answers(pi, f) == want_high
    assert len(passes) == 2

    same = Interpretation(VITERBI, pi.universe, UNARY_RQ, dict(pi.table), pi.default)
    assert _answers(same, f) == want_high
    assert len(passes) == 2
    pi.table.update(low.table)
    assert _answers(pi, f) == _answers(low, f) == want_low
    assert len(passes) == 3


def test_existential_optimal_needs_a_maxplus_semiring():
    pi = Interpretation.from_atoms(NAT, (1, 2), UNARY_R, {("R", (1,)): 2, ("R", (2,)): 3})
    f = parse("(A x. R(x)) | E x. R(x)")
    for fn in (optimal, has_existential_optimal):
        with pytest.raises(PreconditionError, match="not linearly ordered with idempotent"):
            fn(pi, f)
