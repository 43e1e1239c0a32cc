"""Model-checking game trees, evaluation strategies, optimal-strategy
extraction, classification, and the strategy-translation algorithms.

A node of the game tree is labelled by an instantiated subformula (formula
plus an assignment of its free variables), and the label fixes the subtree
under it.  `build_game_tree` therefore keeps one `GameNode` per label: the
tree is a DAG in which equal labels share one node, and `GameTree.order`
lists every node once, children before parents.  The builder is one flat
loop over its own stack of (subformula, env, child list) items and leave
frames, with no per-node callback.  A bottom-up walk over the tree is one
loop over that list, so it visits each shared node once; a top-down walk
(enumeration, and extraction by `strategy_from_choices`, another flat loop)
keeps its own stack.  `GameTree.node_count` and the build guard count the
unshared tree.  No walk here recurses, over game trees or over strategies,
so neither the width nor the depth of a formula costs stack.  Side tables
are keyed on the `GameNode` or `Strategy` itself (both hash by identity).
Nothing changes a tree or its nodes once it is built, so `build_game_tree`
keeps the last tree it built, one entry keyed on the formula object, the
universe and the guard.

One bottom-up pass gives every node its value; its ties, the number of
strategies under it that take a maximal child at every choice node (0: the
node bears no strategy); and its picks, the indices of a choice node's
maximal children, kept as the pass takes the maximum.  The same loop fills a
second such table with forall nodes barred.  Optimal extraction and
`stream_optimal` follow the picks of the first, so nothing compares values
again; the second decides whether some optimal strategy is existential.  The
last pair of tables valued on an interpretation is kept, one entry keyed on
the tree object and on the interpretation's semiring, universe, default and
table items (never on the object: its table is a mutable dict), so `optimal`
and then `has_existential_optimal` on one sentence and interpretation build
one tree and value it once between them.  With every leaf reading one in
`BOOLEAN`, a node's ties count all its strategies, and `count_strategies`
and `enumerate_strategies` read that first table, which their pass fills
alone.

A strategy is a labelled tree of `Strategy` nodes with the same labels;
or/exists nodes keep exactly one child, and/forall nodes keep all children.
The value of a strategy under an interpretation is the product of its leaf
values, read by the leaf rule of `evaluation` (equality leaves contribute
their Boolean value); `eval_strategy` folds it over one strategy.  The
enumerated strategies share their sub-strategies (one pool per shared node),
and given an interpretation `enumerate_strategies` values each pool when it
makes it and yields every strategy with its value, so a loop over them, such
as `sum_of_strategies_check`, reads each leaf and multiplies out each pooled
product once and walks no strategy again.
Quantifier nodes range over `evaluation.quantifier_range`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import GuardExceeded, PreconditionError
from .evaluation import _leaf_reader, evaluate, quantifier_range
from .formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Or,
    Top,
    _fold,
    _LastBuilt,
    _preorder,
    qr,
    size,
)
from .interpretations import Interpretation
from .semirings import BOOLEAN, Semiring

STRATEGY_GUARD = 10**6
TREE_NODE_GUARD = 5 * 10**5

Env = Tuple[Tuple[str, int], ...]

_KINDS = {Or: "or", And: "and", Exists: "exists", Forall: "forall",
          Top: "leaf", Bottom: "leaf", Atom: "leaf", Eq: "leaf"}


def _kind(formula: Formula) -> str:
    return _KINDS.get(type(formula), "leaf")


class GameNode:
    """A node of the game tree; the label is (formula, env), and every use of
    a label in one tree is this one node."""

    __slots__ = ("formula", "env", "kind", "children", "tags")

    def __init__(self, formula, env, kind, children, tags):
        self.formula = formula
        self.env = env
        self.kind = kind
        self.children = children
        self.tags = tags

    def __repr__(self):
        return f"<game node {self.kind} {self.formula!r} {dict(self.env)}>"


class GameTree:
    """`order` lists every node once, children before parents (root last)."""

    def __init__(self, root: GameNode, universe: Tuple[int, ...], node_count: int,
                 order: List[GameNode]):
        self.root = root
        self.universe = universe
        self.node_count = node_count
        self.order = order


def build_game_tree(
    formula: Formula, universe, guard: int = TREE_NODE_GUARD
) -> GameTree:
    """The game tree over the given universe (an int n means {1..n}).

    Quantifier nodes get one child per legal instantiation: the full universe
    for plain quantifiers, the universe minus the visible free-variable
    instantiations for distinct quantifiers.  Equal labels share one node;
    `node_count` and the guard count the nodes of the unshared tree.  The
    last tree is kept (see the module notes): the same formula object over an
    equal universe with the same guard gets the same `GameTree` back.
    """
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    else:
        universe = tuple(universe)
    return _last_tree(formula, universe, guard)


def _build_game_tree(formula: Formula, universe: Tuple[int, ...], guard: int) -> GameTree:
    if formula.free:
        raise PreconditionError(f"game trees need a sentence; free: {list(formula.free)}")
    shared: Dict[tuple, Tuple[GameNode, int]] = {}  # label -> node, unshared size
    order: List[GameNode] = []
    count = 0
    # An item (g, env, out) appends the node of g under env to the child list
    # out, looking its label up when it is popped (a label still pending is an
    # ancestor's, which no descendant shares); a new inner node pushes a leave
    # frame (node, count before it) under its children, which closes it.
    top: List[GameNode] = []
    stack = [(formula, {}, top)]
    while stack:
        item = stack.pop()
        if len(item) == 2:
            node, start = item
            node.children = tuple(node.children)
            shared[(id(node.formula), node.env)] = node, count - start
            order.append(node)
            continue
        g, env, out = item
        env_t = tuple([(v, env[v]) for v in g.free])
        label = (id(g), env_t)
        hit = shared.get(label)
        count += hit[1] if hit is not None else 1
        if count > guard:
            raise GuardExceeded(f"game tree exceeds {guard} nodes")
        if hit is not None:
            out.append(hit[0])
            continue
        kind = _KINDS.get(type(g))
        if kind == "leaf":
            node = GameNode(g, env_t, kind, (), ())
            shared[label] = node, 1
            order.append(node)
            out.append(node)
            continue
        if kind == "or" or kind == "and":
            node = GameNode(g, env_t, kind, [], (0, 1))
            below = ((g.right, env, node.children), (g.left, env, node.children))
        elif kind is not None:
            tags = tuple(quantifier_range(g, universe, [e for _, e in env_t]))
            node = GameNode(g, env_t, kind, [], tags)
            below = [(g.body, {**env, g.var: b}, node.children) for b in reversed(tags)]
        else:
            raise PreconditionError(f"not a formula: {g!r}")
        out.append(node)
        stack.append((node, count - 1))
        stack += below
    return GameTree(top[0], universe, count, order)


_last_tree = _LastBuilt(_build_game_tree)


@dataclass(eq=False, slots=True)
class Strategy:
    """A strategy-tree node; `tag` records the choice that produced each child:
    the chosen side for or-nodes, the witness element for exists-nodes, and
    the tuple of instantiation elements for forall-nodes."""

    formula: Formula
    env: Env
    tag: object
    children: Tuple["Strategy", ...]

    @property
    def kind(self) -> str:
        return _kind(self.formula)

    @staticmethod
    def leaves_of(node: "Strategy") -> List["Strategy"]:
        return [n for n in strategy_nodes(node) if not n.children]

    def __repr__(self):
        return f"<strategy for {self.formula!r}>"


def strategy_nodes(s: Strategy) -> List[Strategy]:
    """The nodes of s in pre-order over reversed children: each node before
    its children, the last child first.  `classify` meets forall nodes in
    this order and stops at the first that relies on its children."""
    return list(_preorder(s, lambda node: node.children[::-1]))


def _count_table(tree: GameTree) -> Dict[GameNode, tuple]:
    """The first table of `_optimal_table`, alone, with every leaf reading one
    in `BOOLEAN`: a node with a strategy is worth one, so its ties count all
    its strategies and every strategy-bearing child of a choice node is a pick."""
    return _optimal_table(BOOLEAN, lambda formula, env: True, tree, False)[0]


def count_strategies(tree: GameTree) -> int:
    return _count_table(tree)[tree.root][1]


def enumerate_strategies(tree: GameTree, guard: int = STRATEGY_GUARD,
                         interp: Optional[Interpretation] = None) -> Iterator:
    """The strategies of tree; with interp, (strategy, value on interp) pairs."""
    table = _count_table(tree)
    total = table[tree.root][1]
    if total > guard:
        raise GuardExceeded(f"{total} strategies exceed the guard {guard}")

    yield from _strategies(tree.root, table, guard, interp)


def _strategies(root: GameNode, table, guard: int, interp=None) -> Iterator:
    """The strategies under root that take, at every or/exists node, a child
    that its picks in the (value, ties, picks) table list, in enumeration
    order; the ties of a node are their number under it.  A stack
    follows the chains of maximal children down to leaves and and/forall
    nodes.  The strategies under a leaf or a child of an and/forall node are
    listed once per shared node (its pool, folded from the pools below it)
    and shared above it, unless they exceed guard (`GuardExceeded`; the pools
    below stay within it) or the and/forall has none.  With interp, a pool
    also lists its strategies' values and each strategy is yielded with its
    value: a leaf is read once, a choice node takes its child's value, an
    and/forall node multiplies its children's (folded from the first; an
    empty range is one), and the choice chain around a strategy adds none."""
    pools: Dict[GameNode, tuple] = {}  # node -> (strategies, values or False)
    valued = interp is not None
    if valued:
        read, mul, one = _leaf_reader(interp), interp.semiring.mul, interp.semiring.one
        times = lambda vs: functools.reduce(mul, vs) if vs else one

    def made(node, below):  # from the pools of node's maximal children
        f, env = node.formula, node.env
        if node.kind == "leaf":
            return [Strategy(f, env, None, ())], valued and [read(f, env)]
        if node.kind == "or" or node.kind == "exists":
            return ([Strategy(f, env, node.tags[i], (sub,))
                     for i, (subs, _) in zip(table[node][2], below) for sub in subs],
                    valued and [v for _, vs in below for v in vs])
        if not table[node][1]:
            return (), ()
        return ((Strategy(f, env, node.tags, ps)
                 for ps in itertools.product(*[p[0] for p in below])),
                valued and map(times, itertools.product(*[p[1] for p in below])))

    def kids(node):
        if node in pools:
            return ()
        if node.kind == "or" or node.kind == "exists":
            return [node.children[i] for i in table[node][2]]
        return node.children if table[node][1] else ()

    def step(node, *below):
        got = pools.get(node)
        if got is None:
            got, vals = made(node, below)
            got = pools[node] = list(got), valued and list(vals)
        return got

    def pool(node: GameNode) -> tuple:
        if node not in pools:
            if table[node][1] > guard:
                raise GuardExceeded(
                    f"{table[node][1]} strategies under one node exceed the guard {guard}")
            _fold(node, step, kids)
        return pools[node]

    stack = [(root, None)]  # (node, chain): chain links (outer chain, choice node, index)
    while stack:
        node, chain = stack.pop()
        if node.kind == "or" or node.kind == "exists":
            stack += [(node.children[i], (chain, node, i)) for i in reversed(table[node][2])]
        elif table[node][1]:
            got, vals = (pool(node) if node.kind == "leaf"
                         else made(node, [pool(c) for c in node.children]))
            vals = valued and iter(vals)
            for s in got:
                link = chain
                while link is not None:
                    link, up, i = link
                    s = Strategy(up.formula, up.env, up.tags[i], (s,))
                yield (s, next(vals)) if valued else s


def strategy_from_choices(node: GameNode, chooser) -> Strategy:
    """Build a strategy by asking chooser(game_node) for a child index at
    every or/exists node, in pre-order."""
    # An item (node, out) appends the strategy of node to the child list out;
    # a strategy over children is pushed under them and closed when popped.
    top: List[Strategy] = []
    stack = [(node, top)]
    while stack:
        item = stack.pop()
        if type(item) is Strategy:
            item.children = tuple(item.children)
            continue
        node, out = item
        if node.kind == "leaf":
            out.append(Strategy(node.formula, node.env, None, ()))
            continue
        if node.kind == "or" or node.kind == "exists":
            i = chooser(node)
            below, tag = (node.children[i],), node.tags[i]
        else:
            below, tag = node.children, node.tags
        s = Strategy(node.formula, node.env, tag, [])
        out.append(s)
        stack.append(s)
        stack += [(c, s.children) for c in reversed(below)]
    return top[0]


def random_strategy(tree: GameTree, rng) -> Strategy:
    return strategy_from_choices(tree.root, lambda node: rng.randrange(len(node.children)))


def resolve_args(leaf: Strategy) -> Tuple[int, ...]:
    env = dict(leaf.env)
    return tuple(env[a] if isinstance(a, str) else a for a in leaf.formula.args)


def _valuer(interp: Interpretation):
    """value(s): the value of strategy s on interp.  A childless forall or
    `true` node is one (an empty product), a childless choice node zero (an
    empty sum), any other leaf is read, and a node with children is the
    product of their values, folded from the first."""
    sr = interp.semiring
    mul, one, zero = sr.mul, sr.one, sr.zero
    read = _leaf_reader(interp)

    def step(node: Strategy, *below):
        if below:
            return functools.reduce(mul, below)
        kind = _kind(node.formula)
        return read(node.formula, node.env) if kind == "leaf" else one if kind == "forall" else zero

    return lambda s: _fold(s, step, lambda node: node.children)


def eval_strategy(interp: Interpretation, s: Strategy):
    """Product of the leaf values."""
    return _valuer(interp)(s)


def validate_strategy(s: Strategy, universe) -> None:
    """Structural check that s is a strategy of the game tree over universe."""
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    universe = tuple(universe)

    # An item is (node, env, side): side is None, or the formula that the
    # parent's label puts here and the parent's kind.
    def kids(item: tuple):
        node, env, side = item
        g = node.formula
        if side is not None and g != side[0]:
            raise PreconditionError(f"{side[1]}-child label mismatch")
        expected_env = tuple((v, env[v]) for v in g.free)
        if node.env != expected_env:
            raise PreconditionError(f"label mismatch at {g!r}: {node.env} != {expected_env}")
        if node.kind == "leaf":
            if node.children:
                raise PreconditionError("leaf with children")
            return ()
        if node.kind == "or":
            if len(node.children) != 1 or node.tag not in (0, 1):
                raise PreconditionError("or-node must keep exactly one tagged child")
            return ((node.children[0], env, (g.left if node.tag == 0 else g.right, "or")),)
        if node.kind == "and":
            if len(node.children) != 2:
                raise PreconditionError("and-node must keep both children")
            return [(c, env, (sub, "and")) for c, sub in zip(node.children, (g.left, g.right))]
        domain = quantifier_range(g, universe, [e for _, e in expected_env])
        if node.kind == "exists":
            if len(node.children) != 1:
                raise PreconditionError("exists-node must keep exactly one child")
            if node.tag not in domain:
                raise PreconditionError(
                    f"witness {node.tag} outside quantifier range {domain}"
                )
            return ((node.children[0], {**env, g.var: node.tag}, None),)
        if list(node.tag) != domain or len(node.children) != len(domain):
            raise PreconditionError(
                f"forall-node must keep all children {domain}, has {node.tag}"
            )
        return [(c, {**env, g.var: b}, None) for b, c in zip(node.tag, node.children)]

    for _ in _preorder((s, dict(s.env), None), kids):
        pass


# ---------------------------------------------------------------------------
# Sum of strategies
# ---------------------------------------------------------------------------


@dataclass
class SumOfStrategiesReport:
    ok: bool
    eval_value: object
    strategy_sum: object
    strategy_count: int


def sum_of_strategies_check(
    interp: Interpretation, formula: Formula, guard: int = STRATEGY_GUARD
) -> SumOfStrategiesReport:
    tree = build_game_tree(formula, interp.universe)
    sr = interp.semiring
    total, count = sr.zero, 0
    for count, (_, v) in enumerate(enumerate_strategies(tree, guard, interp), 1):
        total = sr.add(total, v)
    value = evaluate(interp, formula)
    return SumOfStrategiesReport(value == total, value, total, count)


# ---------------------------------------------------------------------------
# Optimal strategies: one (value, ties) pass
# ---------------------------------------------------------------------------


def _require_maxplus(sr: Semiring):
    if not (sr.additively_idempotent and sr.linearly_ordered):
        raise PreconditionError(f"{sr.id} is not linearly ordered with idempotent addition")


def _optimal_table(sr: Semiring, read, tree: GameTree, bar=True) -> Tuple[dict, Optional[dict]]:
    """Two (value, ties, picks) tables in sr from one loop over the tree's
    nodes: in the first every node bears its strategies, in the second (None
    unless bar) forall nodes bear none.  A leaf is read(formula, env).  An
    and/forall node multiplies its children's values, folded from the first
    (an empty range is one).  A choice node takes the maximum over its
    strategy-bearing children, or zero without one: every strategy-less
    subtree, such as an empty exists range, evaluates to zero; its picks are
    the ascending indices of those children that reach it (other nodes have
    none).  A node with no forall below it has one entry in both."""
    mul, lt, zero, one = sr.mul, sr.lt, sr.zero, sr.one

    def entry(node, tab):
        children = node.children
        if node.kind == "or" or node.kind == "exists":
            best, ties, picks = zero, 0, []
            for i, c in enumerate(children):
                v, t, _ = tab[c]
                if not t:
                    continue
                if not ties or v is not best and lt(best, v):
                    best, ties, picks = v, t, [i]
                elif v is best or v == best:
                    ties += t
                    picks.append(i)
            return best, ties, tuple(picks)
        if not children:
            return one, 1, ()
        val, ties, _ = tab[children[0]]
        for c in children[1:]:
            v, t, _ = tab[c]
            val, ties = mul(val, v), ties * t
        return val, ties, ()

    table = {}
    barred = {} if bar else None
    for node in tree.order:
        got = table[node] = (entry(node, table) if node.kind != "leaf"
                             else (read(node.formula, node.env), 1, ()))
        if bar:
            barred[node] = (got if not node.formula.metrics.qr_forall else (zero, 0, ())
                            if node.kind == "forall" else entry(node, barred))
    return table, barred


_last_tables = _LastBuilt(lambda tree, sr, universe, default, items: _optimal_table(
    sr, _leaf_reader(Interpretation._unchecked(sr, universe, None, dict(items), default)), tree))


def _interp_tables(tree: GameTree, interp: Interpretation) -> Tuple[dict, dict]:
    """The two tables of tree on interp, kept as the module notes say; they
    read the leaves through an interpretation made from the key alone."""
    return _last_tables(tree, interp.semiring, interp.universe, interp.default,
                        tuple(interp.table.items()))


def _first_optimal(tree: GameTree, table) -> Strategy:
    """The strategy that takes the first maximal child at every choice node."""
    if not table[tree.root][1]:
        raise PreconditionError("no strategy exists over this universe")
    return strategy_from_choices(tree.root, lambda node: table[node][2][0])


@dataclass
class OptimalResult:
    value: object
    strategy: Strategy
    all_optimal_count: int
    dp: Tuple[GameTree, Dict[GameNode, tuple]] = field(repr=False)

    def stream_optimal(self) -> Iterator[Strategy]:
        """All strategies assembled from locally maximal choices.  With an
        absorbing zero in play a globally optimal strategy may fall outside
        this family; the class-membership checks below do their own search.
        The strategies under each child of an and/forall node are listed, so
        more than `STRATEGY_GUARD` of them raise `GuardExceeded`."""
        tree, table = self.dp
        return _strategies(tree.root, table, STRATEGY_GUARD)


def optimal(interp: Interpretation, formula: Formula) -> OptimalResult:
    """Optimal value, one optimal strategy and the number of tied ones, from
    one (value, ties) pass; requires a linearly ordered, additively
    idempotent semiring."""
    tree = build_game_tree(formula, interp.universe)
    _require_maxplus(interp.semiring)
    table = _interp_tables(tree, interp)[0]
    value, ties, _ = table[tree.root]
    return OptimalResult(value, _first_optimal(tree, table), ties, (tree, table))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class StrategyStats:
    a_exists: frozenset
    a_lit: frozenset
    cls: str  # existential | almost_existential | relies_on_forall


def witnesses(s: Strategy) -> frozenset:
    return frozenset(n.tag for n in strategy_nodes(s) if n.kind == "exists")


def literal_elements(s: Strategy) -> frozenset:
    out = set()
    for leaf in Strategy.leaves_of(s):
        if isinstance(leaf.formula, Atom):
            out.update(resolve_args(leaf))
    return frozenset(out)


def classify(s: Strategy) -> StrategyStats:
    """Existential: no forall node used.  Relies-on-forall: some forall node
    where every child's subtree uses a literal containing that child's
    instantiation (an empty-range forall node counts vacuously).  Otherwise
    almost existential."""
    has_forall = False
    relies = False
    for node in strategy_nodes(s):
        if node.kind != "forall":
            continue
        has_forall = True
        if all(b in literal_elements(child) for b, child in zip(node.tag, node.children)):
            relies = True
            break
    if not has_forall:
        cls = "existential"
    elif relies:
        cls = "relies_on_forall"
    else:
        cls = "almost_existential"
    return StrategyStats(witnesses(s), literal_elements(s), cls)


# ---------------------------------------------------------------------------
# Element swaps and relabelling
# ---------------------------------------------------------------------------


def _map_env(env: Env, f) -> Env:
    return tuple(sorted((v, f(e)) for v, e in env))


def _relabelled(node: Strategy, f, tag, children) -> Strategy:
    """The one relabelling step: node over the new children, its env mapped
    by f, with tag at an exists node; a forall node keeps the children that
    are not None, sorted by f of their elements."""
    if node.kind == "forall":
        kept = sorted([(f(b), c) for b, c in zip(node.tag, children) if c is not None],
                      key=lambda p: p[0])
        tag = tuple(b for b, _ in kept)
        children = tuple(c for _, c in kept)
    return Strategy(node.formula, _map_env(node.env, f), tag, children)


def _map_strategy(s: Strategy, f, keep=lambda e: True) -> Strategy:
    """s with every element e replaced by f(e); a forall keeps, sorted, the
    children whose new element passes keep."""

    def step(node: Strategy, *children) -> Strategy:
        if node.kind == "forall":
            children = [c if keep(f(b)) else None for b, c in zip(node.tag, children)]
        return _relabelled(node, f, f(node.tag) if node.kind == "exists" else node.tag, children)

    return _fold(s, step, lambda node: node.children)


def swap_instantiation(s: Strategy, b: int, c: int) -> Strategy:
    """Exchange the elements b and c everywhere in the strategy; for
    c outside the root's visible instantiation this yields a strategy for the
    b<->c-swapped label."""
    root_elems = {e for _, e in s.env}
    if c in root_elems and c != b:
        raise PreconditionError(f"element {c} occurs in the root instantiation")
    if b == c:
        return s

    def f(e):
        if e == b:
            return c
        if e == c:
            return b
        return e

    return _map_strategy(s, f)


# ---------------------------------------------------------------------------
# Strategy translation: shrink the universe from n+r+1 to n+r elements
# ---------------------------------------------------------------------------


def translate_strategy(
    s: Strategy, n: int, r: Optional[int] = None, strict_bound: bool = True
) -> Tuple[Strategy, List[Tuple[Strategy, Strategy]]]:
    """Translate a strategy over {1..n+r+1} into one over {1..n+r}.

    Relabelling uses deterministic tie-breaking: the element being
    eliminated is the minimum of the moved images (initially n+r+1); when an
    exists-node witnesses it, it is remapped to the largest element of
    {1..n+r} outside the visible instantiation and the moved images; under
    every forall node the child instantiating the eliminated element is
    dropped.  Returns the translated strategy and the list of
    (forall node, dropped child) pairs.
    """
    if r is None:
        r = qr(s.formula)
    big = n + r + 1
    lits = literal_elements(s)
    if any(e > n for e in lits):
        raise PreconditionError(
            f"support precondition violated: literal elements {sorted(lits)} exceed {n}"
        )
    if strict_bound and n <= 2 ** (size(s.formula) + 1) + r:
        raise PreconditionError(
            f"n = {n} is not above the bound 2^(|psi|+1) + r = {2 ** (size(s.formula) + 1) + r}"
        )
    dropped: List[Tuple[Strategy, Strategy]] = []

    def eliminated(g: Dict[int, int]) -> int:
        moved = [v for k, v in g.items() if k != v]
        return min(moved + [big])

    # An item is [node, relabelling] (a dropped forall child: [node, None,
    # its forall node]); an exists item gets its new tag appended.
    def kids(item: list):
        node, g = item[0], item[1]
        if g is None:
            dropped.append((item[2], node))
            return ()
        if node.kind == "exists":
            i = eliminated(g)
            child = node.children[0]
            if node.tag == i:
                visible = {e for _, e in node.env}
                moved_images = {v for k, v in g.items() if k != v}
                candidates = [
                    k
                    for k in range(1, n + r + 1)
                    if k not in visible and k not in moved_images
                ]
                if not candidates:
                    raise PreconditionError("no fresh element available for relabelling")
                j = max(candidates)
                item.append(j)
                return ([child, {**g, i: j}],)
            item.append(g.get(node.tag, node.tag))
            return ([child, g],)
        if node.kind == "forall":
            i = eliminated(g)
            return [[c, g] if b != i else [c, None, node] for b, c in zip(node.tag, node.children)]
        return [[c, g] for c in node.children]

    def step(item: list, *children) -> Optional[Strategy]:
        node, g = item[0], item[1]
        if g is None:
            return None
        tag = item[2] if node.kind == "exists" else node.tag
        return _relabelled(node, lambda e: g.get(e, e), tag, children)

    out = _fold([s, {}], step, kids)
    validate_strategy(out, n + r)
    return out, dropped


# ---------------------------------------------------------------------------
# Almost-existential compaction and translation
# ---------------------------------------------------------------------------


def c_constants(size_psi: int, m: int) -> int:
    """c_0 = 0 and c_{m+1} = 2^(|psi|+1) * ((c_m + 1) * c_m + 1)."""
    c = 0
    for _ in range(m):
        c = 2 ** (size_psi + 1) * ((c + 1) * c + 1)
    return c


def compact_almost_existential(s: Strategy, m: int, universe) -> Strategy:
    """Bound the witness and literal footprint under forall nodes of
    universal depth <= m by rewriting sibling branches into copies of one
    branch whose instantiation avoids its own literals: one children-first
    pass per depth 1..m compacts the forall nodes of that depth, so a
    malformed strategy meets its first error in that order."""

    def step(v: Strategy, *children) -> Strategy:
        if v.kind != "forall" or v.formula.metrics.qr_forall != depth:
            return Strategy(v.formula, v.env, v.tag, children)
        tags = tuple(v.tag)
        pivot = next((i for i, (b, child) in enumerate(zip(tags, children))
                      if b not in literal_elements(child)), None)
        if pivot is None:
            raise PreconditionError(
                f"strategy relies on forall at {v.formula!r}; compaction needs an "
                "almost existential strategy"
            )
        base, i_l = children[pivot], tags[pivot]
        blocked = witnesses(base) | literal_elements(base)
        children = tuple(swap_instantiation(base, i_l, b) if i != pivot and b not in blocked
                         else child for i, (b, child) in enumerate(zip(tags, children)))
        return Strategy(v.formula, v.env, tags, children)

    for depth in range(1, m + 1):
        s = _fold(s, step, lambda node: node.children)
    validate_strategy(s, universe)
    return s


def translate_almost_existential(s: Strategy, n: int) -> Strategy:
    """Translate an almost existential strategy over {1..n+r} into one over
    {1..n} with support contained in the original's.

    The strategy is wrapped under a fresh outer forall, compacted in one
    children-first pass, and one branch is picked; one relabelling walk then
    swaps the r overflow elements onto unused ones and deletes the forall
    children that instantiate overflow elements.  Raises when fewer than r
    fresh elements remain (the theoretical sufficient bound is
    n >= c_{r+1}(|psi|+1) + r, see `c_constants`)."""
    psi = s.formula
    r = qr(psi)
    if r == 0:
        return s
    if classify(s).cls == "relies_on_forall":
        raise PreconditionError("strategy relies on forall")
    lits = literal_elements(s)
    if any(e > n for e in lits):
        raise PreconditionError("support precondition violated")
    big_universe = tuple(range(1, n + r + 1))
    fresh_y = "y*"
    wrapper_formula = Forall(fresh_y, psi, distinct=True)
    wrapper = Strategy(
        wrapper_formula, (), tuple(big_universe), tuple(s for _ in big_universe)
    )
    compacted = compact_almost_existential(wrapper, r + 1, big_universe)
    used = witnesses(compacted)
    frees = [k for k in range(1, n + 1) if k not in used]
    need = [n + j for j in range(1, r + 1) if (n + j) in used]
    if len(frees) < len(need):
        raise PreconditionError(
            f"only {len(frees)} fresh elements available; need {len(need)} "
            f"(sufficient universe bound: n >= {c_constants(size(wrapper_formula), r + 1) + r})"
        )
    swap = {**dict(zip(need, frees)), **dict(zip(frees, need))}
    out = _map_strategy(compacted.children[0], lambda e: swap.get(e, e), keep=lambda e: e <= n)
    validate_strategy(out, n)
    if any(e > n for e in literal_elements(out)):
        raise PreconditionError("translation left an overflow literal element")
    return out
