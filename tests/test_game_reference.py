"""Label-shared game trees, stack-based strategy walks and valued strategy
enumeration: differential tests against the frozen unshared game-tree code,
the frozen recursive strategy walks and the frozen strategy searches that
value each strategy on its own (reference_games.py), the node guard and the
node order of shared trees, and the picks of the (value, ties, picks) tables
against the frozen value-equality rule they replaced."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_games as ref
from corpus import UNARY_RQ, random_foneq_sentence
from semlog import games, preservation
from semlog.errors import GuardExceeded
from semlog.formulas import FALSE, TRUE, And, Atom, Eq, Exists, Forall, Or, free_vars, metrics, qr
from semlog.interpretations import Interpretation, Vocabulary, random_interpretation
from semlog.parser import parse
from semlog.semirings import INF, LUKASIEWICZ, NAT, S3, TROPICAL, VITERBI

VOCAB = Vocabulary({"R": 1, "E": 2})
NAMES = ("x", "y", "z")  # few names, so binders shadow each other
TERMS = NAMES * 3 + (1, 2, 5)  # 5 lies outside every universe drawn here
CARRIERS = {
    "viterbi": (VITERBI, [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    "s3": (S3, [0, 1, 2]),
    "tropical": (TROPICAL, [INF, Fraction(0), Fraction(1, 2), Fraction(3)]),
    "lukasiewicz": (LUKASIEWICZ, [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]),
}
# Small guards keep enumeration cheap; both sides must raise on the same input.
STRATEGY_GUARD = 400
STREAM_LIMIT = 400


@st.composite
def formulas(draw, distinct: bool, depth: int = 3):
    """An FO or FO-distinct formula with equality leaves and constants."""
    term = st.sampled_from(TERMS)
    kinds = ["atom", "atom", "const", "eq"]
    if depth > 0:
        kinds += ["and", "or", "exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(st.sampled_from((TRUE, FALSE)))
    if kind == "atom":
        rel, arity = draw(st.sampled_from(VOCAB.relations))
        return Atom(rel, tuple(draw(term) for _ in range(arity)), draw(st.booleans()))
    if kind == "eq":
        return Eq(draw(term), draw(term), draw(st.booleans()))
    if kind in ("and", "or"):
        left = draw(formulas(distinct, depth - 1))
        right = draw(formulas(distinct, depth - 1))
        return And(left, right) if kind == "and" else Or(left, right)
    body = draw(formulas(distinct, depth - 1))
    return draw(st.sampled_from((Exists, Forall)))(draw(st.sampled_from(NAMES)), body, distinct)


@st.composite
def sentences(draw):
    """A formula with its free names closed by a quantifier prefix."""
    distinct = draw(st.booleans())
    f = draw(formulas(distinct))
    for name in sorted(free_vars(f)):
        f = draw(st.sampled_from((Exists, Forall)))(name, f, distinct)
    return f


@st.composite
def cases(draw):
    """A sentence and an interpretation of size 0 to 4; distinct ranges run
    empty at small sizes."""
    f = draw(sentences())
    sr, values = CARRIERS[draw(st.sampled_from(sorted(CARRIERS)))]
    universe = tuple(range(1, draw(st.integers(0, 4)) + 1))
    pair = st.tuples(st.sampled_from(values), st.sampled_from(values))
    table = {key: draw(pair) for key in VOCAB.atoms(universe) if draw(st.booleans())}
    return f, Interpretation(sr, universe, VOCAB, table, draw(pair))


def halves(n):
    """The Viterbi interpretation over {1..n} with every R literal 1/2."""
    half = Fraction(1, 2)
    table = {("R", (e,)): (half, half) for e in range(1, n + 1)}
    return Interpretation(VITERBI, tuple(range(1, n + 1)), VOCAB, table, (Fraction(0), Fraction(1)))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception type is part of the behaviour compared
        return "raised", type(exc)


def key(s):
    return (s.formula, s.env, s.tag, tuple(key(c) for c in s.children))


def unshared(node):
    """The nodes of the unshared tree under node, in preorder."""
    yield node
    for c in node.children:
        yield from unshared(c)


def tree_view(module, f, interp):
    tree = module.build_game_tree(f, interp.universe)
    return tree.node_count, [(n.formula, n.env, n.kind, n.tags) for n in unshared(tree.root)]


def optimal_view(module, f, interp):
    """The optimum and, within the guard, the stream of tied strategies: the
    reference lists every pool of its stream, however large."""
    res = module.optimal(interp, f)
    stream = None
    if res.all_optimal_count <= STRATEGY_GUARD:
        stream = [key(s) for s in itertools.islice(res.stream_optimal(), STREAM_LIMIT)]
    return res.value, key(res.strategy), res.all_optimal_count, stream


def check_stream_beyond_guard(f, interp):
    """Beyond the guard `games` streams without the reference: it starts with
    the extracted strategy, or raises when a pool exceeds the guard (lowered
    to this file's, so that no pool of a million strategies is listed)."""
    res = games.optimal(interp, f)
    if res.all_optimal_count <= STRATEGY_GUARD:
        return
    saved, games.STRATEGY_GUARD = games.STRATEGY_GUARD, STRATEGY_GUARD
    try:
        first = next(res.stream_optimal())
    except GuardExceeded:
        return
    finally:
        games.STRATEGY_GUARD = saved
    assert key(first) == key(res.strategy)


def existential_view(has_existential_optimal, f, interp):
    found, s = has_existential_optimal(interp, f)
    return found, None if s is None else key(s)


def enumeration_view(module, f, interp):
    """The strategy count, and the strategies over one more element than
    interp has, each valued on interp: a leaf that reads the extra element
    raises."""
    tree = module.build_game_tree(f, interp.universe + (len(interp.universe) + 1,))
    return module.count_strategies(tree), [
        (key(s), _outcome(module.eval_strategy, interp, s))
        for s in module.enumerate_strategies(tree, STRATEGY_GUARD)]


def sum_view(module, f, interp):
    rep = module.sum_of_strategies_check(interp, f, STRATEGY_GUARD)
    return rep.ok, rep.eval_value, rep.strategy_sum, rep.strategy_count


@settings(max_examples=300, deadline=None)
@given(cases())
# A strategy-less child (the empty range of E! y) beside a zero-valued leaf:
# value 0, one tie, branch 1.
@example((parse("(E! x. E! y. R(x)) | false"), halves(1)))
# No strategy at all: optimal raises, and no existential strategy exists.
@example((parse("E! x. E! y. R(x)"), halves(1)))
# Two ties on each side of an and-node make 4.
@example((parse("(E x. R(x)) & (E y. R(y))"), halves(2)))
# The only existential strategies are worth 0, below the value 1/4.
@example((parse("(A x. R(x)) | E x. false"), halves(2)))
# The pool of each forall node's or children is shared by every strategy that
# picks its x.
@example((parse("E! x. A! y. (R(x) | R(y))"), halves(3)))
# An empty exists range under a forall: no strategy, and a sum of zero.
@example((parse("A x. E! y. R(y)"), halves(1)))
def test_shared_trees_agree_with_reference(case):
    f, interp = case
    for view in (tree_view, optimal_view, enumeration_view, sum_view):
        assert _outcome(view, games, f, interp) == _outcome(view, ref, f, interp), view
    assert (_outcome(existential_view, preservation.has_existential_optimal, f, interp)
            == _outcome(existential_view, ref.has_existential_optimal, f, interp))
    if _outcome(games.optimal, interp, f)[0] == "value":
        check_stream_beyond_guard(f, interp)


VALUED_CARRIERS = {
    "viterbi": (VITERBI, preservation.VITERBI_GRID),
    "s3": (S3, preservation.S3_VALUES),
    "tropical": (TROPICAL, (Fraction(0), Fraction(1, 2), Fraction(3))),
    "nat": (NAT, (1, 2, 3)),
}


def interp_view(interp):
    return interp.universe, [interp.pair(*k) for k in interp.atom_keys()]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), carrier=st.sampled_from(sorted(VALUED_CARRIERS)),
       n=st.integers(1, 3))
def test_valued_enumeration_agrees_with_plain_and_reference(seed, carrier, n):
    """A valued enumeration yields the plain enumeration's strategies, in its
    order, each with its `eval_strategy` value, and the strategy searches of
    `preservation` that read it answer as the frozen ones that value each
    strategy on its own."""
    rng = random.Random(seed)
    f = random_foneq_sentence(rng)
    sr, values = VALUED_CARRIERS[carrier]
    interp = random_interpretation(sr, UNARY_RQ, n, values, rng)
    tree = games.build_game_tree(f, n)
    plain = _outcome(lambda: [key(s) for s in games.enumerate_strategies(tree, STRATEGY_GUARD)])
    valued = _outcome(list, games.enumerate_strategies(tree, STRATEGY_GUARD, interp))
    if valued[0] == "value":
        assert plain == ("value", [key(s) for s, _ in valued[1]])
        assert all(v == games.eval_strategy(interp, s) for s, v in valued[1])
    else:
        assert plain == valued == ("raised", GuardExceeded)
    assert (_outcome(existential_view, lambda i, g: preservation.has_almost_existential_optimal(
                i, g, STRATEGY_GUARD), f, interp)
            == _outcome(existential_view, lambda i, g: ref.has_almost_existential_optimal(
                i, g, STRATEGY_GUARD), f, interp))
    eliminated = [_outcome(lambda: interp_view(module.eliminate_one_valuations(
        interp, f, STRATEGY_GUARD))) for module in (preservation, ref)]
    assert eliminated[0] == eliminated[1]


# Sentences whose strategies often keep their literals inside a small
# support, so that the translations get past their preconditions.
SHAPES = [
    "E! x. A! y. R(x)",
    "E! x. (true | A! y. R(x))",
    "E! x. A! y. (true | R(y))",
    "E! x. A! y. (R(x) | R(y))",
    "A! y. E! z. R(z)",
    "A! y. (R(y) | E! z. R(z))",
    "A! y. E! z. (false | A! w. (true | R(w)))",
    "A x. E y. (false | R(y))",
]


@st.composite
def strategy_cases(draw):
    """A sentence, a universe size k, the child picks that build a strategy
    of its game over {1..k} (taken in turn, modulo the number of children),
    and the arguments of the strategy operations."""
    f = draw(st.one_of(sentences(), st.sampled_from(SHAPES).map(parse)))
    k = draw(st.integers(1, 5))
    picks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    swap = draw(st.tuples(st.integers(1, k + 1), st.integers(1, k + 1)))
    perm = draw(st.permutations(range(1, k + 1)))
    mutation = draw(st.tuples(st.integers(0, 50), st.sampled_from(("tag", "child", "env", "order")),
                              st.integers(0, k + 1)))
    return f, k, picks, swap, perm, mutation


def chooser(picks):
    it = itertools.cycle(picks)
    return lambda node: next(it) % len(node.children)


def mutated(s, target, change):
    """s with its node target (by identity) replaced by change(target)."""
    if s is target:
        return change(s)
    return games.Strategy(s.formula, s.env, s.tag,
                          tuple(mutated(c, target, change) for c in s.children))


def mutant(s, mutation):
    """s broken at one node: a new tag, a child dropped, an env entry dropped
    or the children reversed."""
    at, how, value = mutation
    nodes = list(ref.strategy_nodes(s))
    target = nodes[at % len(nodes)]
    change = {
        "tag": lambda n: games.Strategy(n.formula, n.env, value, n.children),
        "child": lambda n: games.Strategy(n.formula, n.env, n.tag, n.children[:-1]),
        "env": lambda n: games.Strategy(n.formula, n.env[:-1], n.tag, n.children),
        "order": lambda n: games.Strategy(n.formula, n.env, n.tag, n.children[::-1]),
    }[how]
    return mutated(s, target, change)


def strategy_views(module, s, f, k, swap, perm):
    """What the strategy operations of module make of s, a strategy over
    {1..k}: each outcome is a key or an exception type."""
    r = qr(f)

    def translated(*args):
        out, dropped = module.translate_strategy(*args)
        return key(out), [(key(v), key(w)) for v, w in dropped]

    return [
        _outcome(module.validate_strategy, s, k),
        _outcome(module.validate_strategy, s, k - 1),
        _outcome(lambda: key(module.swap_instantiation(s, *swap))),
        _outcome(lambda: key(module._map_strategy(s, lambda e: perm[e - 1]))),
        _outcome(translated, s, k - r - 1, r, False),
        _outcome(lambda: key(module.compact_almost_existential(s, metrics(f).qr_forall, k))),
        _outcome(lambda: key(module.translate_almost_existential(s, k - r))),
    ]


@settings(max_examples=300, deadline=None)
@given(strategy_cases())
# Every exists picks 5 and every or its left side: under z = 4 (visible to
# E x) the witness 5 is renamed 3, so the translated forall y keeps the tags
# 1, 2, 4, 5 -> 3 and must sort them.
@example((parse("A z. E x. A y. (true | E(y, z))"), 5, [4, 0, 0, 0, 0, 0], (2, 3),
          (2, 1, 3, 4, 5), (0, "tag", 0)))
# Over {1, 2} the forall z has an empty range, and the mutant gives the one
# under y = 2 the tag 0, no tuple: classify meets it first, as the reference
# does, and raises TypeError before the one under y = 1 vacuously relies on
# forall.
@example((parse("A! y. (true & E! x. A! z. x != y)"), 2, [0], (1, 1), [1, 2], (3, "tag", 0)))
# The mutant drops the env entry of a leaf under a depth-1 forall, and a
# depth-2 forall before it in post-order has no pivot: compaction goes depth
# by depth, as the reference does, and raises KeyError at the broken leaf
# before the PreconditionError of the depth-2 node.
@example((parse("A y. A x. E z. (~R(y) & A y. ~E(x, x))"), 5, [0], (1, 1), [1, 2, 3, 4, 5],
          (44, "env", 0)))
def test_strategy_walks_agree_with_reference(case):
    f, k, picks, swap, perm, mutation = case
    built = _outcome(games.strategy_from_choices, games.build_game_tree(f, k).root, chooser(picks))
    want = _outcome(ref.strategy_from_choices, ref.build_game_tree(f, k).root, chooser(picks))
    assert (built[0], key(built[1]) if built[0] == "value" else built[1]) == (
        want[0], key(want[1]) if want[0] == "value" else want[1])
    if built[0] == "raised":
        return
    for s in (built[1], mutant(built[1], mutation)):
        assert strategy_views(games, s, f, k, swap, perm) == strategy_views(ref, s, f, k, swap, perm)


PICK_CARRIERS = {
    "viterbi": (VITERBI, preservation.VITERBI_GRID),
    "s3": (S3, preservation.S3_VALUES),
    "tropical": (TROPICAL, (Fraction(0), Fraction(1, 2), Fraction(3))),
    "lukasiewicz": (LUKASIEWICZ, (Fraction(1, 3), Fraction(2, 3), Fraction(1))),
}


def maximal(table, node):
    """The value-equality rule the picks replaced, frozen: the indices of
    node's strategy-bearing children whose value equals node's."""
    val = table[node][0]
    return [i for i, c in enumerate(node.children) if table[c][1] and table[c][0] == val]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), carrier=st.sampled_from(sorted(PICK_CARRIERS)),
       n=st.integers(1, 4))
def test_picks_are_the_maximal_children(seed, carrier, n):
    """In the plain, the forall-barred and the Boolean count table, a choice
    node's picks are the children the frozen rule finds, in ascending order,
    and no other node picks any."""
    rng = random.Random(seed)
    f = random_foneq_sentence(rng)
    sr, values = PICK_CARRIERS[carrier]
    interp = random_interpretation(sr, UNARY_RQ, n, values, rng)
    tree = games.build_game_tree(f, n)
    for table in (*games._interp_tables(tree, interp), games._count_table(tree)):
        for node in tree.order:
            choice = node.kind == "or" or node.kind == "exists"
            assert list(table[node][2]) == (maximal(table, node) if choice else [])


def check_order(tree):
    """tree.order lists every node reachable from the root exactly once,
    children before parents, root last."""
    at = {id(node): i for i, node in enumerate(tree.order)}
    reachable, stack = set(), [tree.root]
    while stack:
        node = stack.pop()
        if id(node) not in reachable:
            reachable.add(id(node))
            stack.extend(node.children)
    assert len(at) == len(tree.order) and at.keys() == reachable
    assert tree.order[-1] is tree.root
    assert all(at[id(c)] < i for i, node in enumerate(tree.order) for c in node.children)


@settings(max_examples=200, deadline=None)
@given(sentences(), st.integers(0, 4))
def test_guard_and_order_on_random_sentences(f, k):
    """The node count is the frozen unshared tree's; a guard of exactly that
    many nodes builds, one less raises; the order lists the shared tree."""
    nodes = ref.build_game_tree(f, k).node_count
    tree = games.build_game_tree(f, k, guard=nodes)
    assert tree.node_count == nodes
    check_order(tree)
    with pytest.raises(GuardExceeded):
        games.build_game_tree(f, k, guard=nodes - 1)


@pytest.mark.parametrize("text, nodes, shared", [
    ("A! x. A! y. R(x) | Q(y)", 1 + 4 + 12 * 3, 1 + 4 + 12 + 4 + 4),
    # the or node does not see y, and one E! z node with its four leaves
    # serves every x
    ("A! x. A! y. R(x) | (E! z. Q(z))", 1 + 4 + 12 * (2 + 5), 1 + 4 + 4 + 4 + 5),
])
def test_guard_counts_the_unshared_tree(text, nodes, shared):
    f = parse(text)
    assert ref.build_game_tree(f, 4).node_count == nodes
    tree = games.build_game_tree(f, 4, guard=nodes)
    assert tree.node_count == nodes
    assert len({id(n) for n in unshared(tree.root)}) == shared
    check_order(tree)
    with pytest.raises(GuardExceeded):
        games.build_game_tree(f, 4, guard=nodes - 1)
