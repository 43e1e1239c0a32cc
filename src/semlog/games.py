"""Model-checking game trees, evaluation strategies, optimal-strategy
extraction, classification, and the strategy-translation algorithms.

A node of the game tree is labelled by an instantiated subformula (formula
plus an assignment of its free variables), and the label fixes the subtree
under it.  `build_game_tree` therefore keeps one `GameNode` per label: the
tree is a DAG in which equal labels share one node, and the walks over it
(strategy counting and enumeration, the optimal DP) visit each shared node
once.  `GameTree.node_count` and the build guard count the unshared tree.

A strategy is a labelled tree of `Strategy` nodes with the same labels;
or/exists nodes keep exactly one child, and/forall nodes keep all children.
The value of a strategy under an interpretation is the product of its leaf
values, read by the leaf rule of `evaluation` (equality leaves contribute
their Boolean value).  Quantifier nodes range over
`evaluation.quantifier_range`.
"""

from __future__ import annotations

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
    _free_table,
    metrics,
    qr,
    size,
)
from .interpretations import Interpretation
from .semirings import Semiring

STRATEGY_GUARD = 10**6
TREE_NODE_GUARD = 5 * 10**5

Env = Tuple[Tuple[str, int], ...]

_KINDS = {Or: "or", And: "and", Exists: "exists", Forall: "forall"}


def _kind(formula: Formula) -> str:
    return _KINDS.get(type(formula), "leaf")


class GameNode:
    """A node of the game tree; the label is (formula, env), and every use of
    a label in one tree is this one node."""

    __slots__ = ("formula", "env", "kind", "children", "tags")

    def __init__(self, formula, env, children, tags):
        self.formula = formula
        self.env = env
        self.kind = _kind(formula)
        self.children = children
        self.tags = tags

    def __repr__(self):
        return f"<game node {self.kind} {self.formula!r} {dict(self.env)}>"


class GameTree:
    def __init__(self, root: GameNode, universe: Tuple[int, ...], node_count: int):
        self.root = root
        self.universe = universe
        self.node_count = node_count


def build_game_tree(
    formula: Formula, universe, guard: int = TREE_NODE_GUARD
) -> GameTree:
    """The game tree over the given universe (an int n means {1..n}).

    Quantifier nodes get one child per legal instantiation: the full universe
    for plain quantifiers, the universe minus the visible free-variable
    instantiations for distinct quantifiers.  Equal labels share one node;
    `node_count` and the guard count the nodes of the unshared tree.
    """
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    else:
        universe = tuple(universe)
    free = _free_table(formula)
    if free[id(formula)]:
        raise PreconditionError(f"game trees need a sentence; free: {list(free[id(formula)])}")
    shared: Dict[tuple, Tuple[GameNode, int]] = {}  # label -> node, unshared size
    count = 0

    def node(g: Formula, env: dict) -> GameNode:
        nonlocal count
        env_t = tuple([(v, env[v]) for v in free[id(g)]])
        label = (id(g), env_t)
        hit = shared.get(label)
        start = count
        count += hit[1] if hit is not None else 1
        if count > guard:
            raise GuardExceeded(f"game tree exceeds {guard} nodes")
        if hit is not None:
            return hit[0]
        kind = type(g)
        if kind is Or or kind is And:
            out = GameNode(g, env_t, (node(g.left, env), node(g.right, env)), (0, 1))
        elif kind is Exists or kind is Forall:
            domain = quantifier_range(g, universe, [e for _, e in env_t])
            kids = tuple(node(g.body, {**env, g.var: b}) for b in domain)
            out = GameNode(g, env_t, kids, tuple(domain))
        elif kind is Top or kind is Bottom or kind is Atom or kind is Eq:
            out = GameNode(g, env_t, (), ())
        else:
            raise PreconditionError(f"not a formula: {g!r}")
        shared[label] = (out, count - start)
        return out

    root = node(formula, {})
    return GameTree(root, universe, count)


@dataclass(eq=False)
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
    def leaves_of(node: "Strategy") -> Iterator["Strategy"]:
        stack = [node]
        while stack:
            cur = stack.pop()
            if not cur.children:
                yield cur
            else:
                stack.extend(cur.children)

    def __repr__(self):
        return f"<strategy for {self.formula!r}>"


def strategy_nodes(s: Strategy) -> Iterator[Strategy]:
    stack = [s]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(cur.children)


def _strategy_counts(root: GameNode) -> Dict[int, int]:
    """The number of strategies under every node below root, keyed by id;
    each shared node is counted once."""
    counts: Dict[int, int] = {}

    def go(node: GameNode) -> int:
        got = counts.get(id(node))
        if got is None:
            if node.kind in ("or", "exists"):
                got = sum(go(c) for c in node.children)
            else:  # a leaf is the empty product
                got = 1
                for c in node.children:
                    got *= go(c)
            counts[id(node)] = got
        return got

    go(root)
    return counts


def count_strategies(tree: GameTree) -> int:
    return _strategy_counts(tree.root)[id(tree.root)]


def enumerate_strategies(tree: GameTree, guard: int = STRATEGY_GUARD) -> Iterator[Strategy]:
    counts = _strategy_counts(tree.root)
    total = counts[id(tree.root)]
    if total > guard:
        raise GuardExceeded(f"{total} strategies exceed the guard {guard}")

    yield from _strategies(tree.root, lambda node: range(len(node.children)), counts, guard)


def _strategies(root: GameNode, choices, counts, guard: int) -> Iterator[Strategy]:
    """The strategies under root that take, at every or/exists node, a child
    whose index choices(node) lists, in enumeration order; counts[id(node)]
    is their number under node.  The strategies under a child of an
    and/forall node are listed once per shared node and shared above it,
    unless they exceed guard (`GuardExceeded`) or the and/forall has none."""
    pools: Dict[int, List[Strategy]] = {}

    def pool(node: GameNode) -> List[Strategy]:
        if id(node) not in pools:
            if counts[id(node)] > guard:
                raise GuardExceeded(
                    f"{counts[id(node)]} strategies under one node exceed the guard {guard}")
            pools[id(node)] = list(go(node))
        return pools[id(node)]

    def go(node: GameNode) -> Iterator[Strategy]:
        if node.kind == "leaf":
            yield Strategy(node.formula, node.env, None, ())
        elif node.kind in ("and", "forall"):
            if counts[id(node)]:
                for picks in itertools.product(*[pool(c) for c in node.children]):
                    yield Strategy(node.formula, node.env, node.tags, picks)
        else:
            for i in choices(node):
                for sub in go(node.children[i]):
                    yield Strategy(node.formula, node.env, node.tags[i], (sub,))

    return go(root)


def strategy_from_choices(node: GameNode, chooser) -> Strategy:
    """Build a strategy by asking chooser(game_node) for a child index at
    every or/exists node."""
    if node.kind == "leaf":
        return Strategy(node.formula, node.env, None, ())
    if node.kind in ("or", "exists"):
        i = chooser(node)
        return Strategy(
            node.formula,
            node.env,
            node.tags[i],
            (strategy_from_choices(node.children[i], chooser),),
        )
    return Strategy(
        node.formula,
        node.env,
        node.tags,
        tuple(strategy_from_choices(c, chooser) for c in node.children),
    )


def random_strategy(tree: GameTree, rng) -> Strategy:
    return strategy_from_choices(tree.root, lambda node: rng.randrange(len(node.children)))


def resolve_args(leaf: Strategy) -> Tuple[int, ...]:
    env = dict(leaf.env)
    return tuple(env[a] if isinstance(a, str) else a for a in leaf.formula.args)


def eval_strategy(interp: Interpretation, s: Strategy):
    """Product of the leaf values; a leaf shared among branches is read once."""
    sr = interp.semiring
    read = _leaf_reader(interp)
    values: Dict[int, object] = {}
    out = sr.one
    for leaf in Strategy.leaves_of(s):
        g = leaf.formula
        if isinstance(g, (Top, Forall)):
            # a childless forall node has an empty quantifier range: empty product
            continue
        if isinstance(g, (Exists, Or, And)):
            # childless choice nodes only arise from empty exists ranges: empty sum
            out = sr.mul(out, sr.zero)
            continue
        if id(leaf) not in values:
            values[id(leaf)] = read(g, leaf.env)
        out = sr.mul(out, values[id(leaf)])
    return out


def validate_strategy(s: Strategy, universe) -> None:
    """Structural check that s is a strategy of the game tree over universe."""
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    universe = tuple(universe)
    free: Dict[int, tuple] = {}

    def walk(node: Strategy, env: dict):
        g = node.formula
        if id(g) not in free:
            free.update(_free_table(g))
        expected_env = tuple((v, env[v]) for v in free[id(g)])
        if node.env != expected_env:
            raise PreconditionError(f"label mismatch at {g!r}: {node.env} != {expected_env}")
        if node.kind == "leaf":
            if node.children:
                raise PreconditionError("leaf with children")
            return
        if node.kind == "or":
            if len(node.children) != 1 or node.tag not in (0, 1):
                raise PreconditionError("or-node must keep exactly one tagged child")
            side = g.left if node.tag == 0 else g.right
            if node.children[0].formula is not side and node.children[0].formula != side:
                raise PreconditionError("or-child label mismatch")
            walk(node.children[0], env)
            return
        if node.kind == "and":
            if len(node.children) != 2:
                raise PreconditionError("and-node must keep both children")
            for child, sub in zip(node.children, (g.left, g.right)):
                if child.formula != sub:
                    raise PreconditionError("and-child label mismatch")
                walk(child, env)
            return
        domain = quantifier_range(g, universe, [e for _, e in expected_env])
        if node.kind == "exists":
            if len(node.children) != 1:
                raise PreconditionError("exists-node must keep exactly one child")
            if node.tag not in domain:
                raise PreconditionError(
                    f"witness {node.tag} outside quantifier range {domain}"
                )
            env2 = dict(env)
            env2[g.var] = node.tag
            walk(node.children[0], env2)
            return
        # forall
        if list(node.tag) != domain or len(node.children) != len(domain):
            raise PreconditionError(
                f"forall-node must keep all children {domain}, has {node.tag}"
            )
        for b, child in zip(node.tag, node.children):
            env2 = dict(env)
            env2[g.var] = b
            walk(child, env2)

    walk(s, dict(s.env))


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
    total = sr.sum(eval_strategy(interp, s) for s in enumerate_strategies(tree, guard))
    value = evaluate(interp, formula)
    return SumOfStrategiesReport(value == total, value, total, count_strategies(tree))


# ---------------------------------------------------------------------------
# Optimal strategies (argmax dynamic program)
# ---------------------------------------------------------------------------


def _require_maxplus(sr: Semiring):
    if not (sr.additively_idempotent and sr.linearly_ordered):
        raise PreconditionError(
            f"{sr.id} is not linearly ordered with idempotent addition"
        )


class _OptimalDP:
    """Argmax dynamic program.  `value` is the evaluation of each subtree: a
    choice node takes the maximum over its strategy-bearing children, or zero
    without one (every strategy-less subtree, such as an empty exists range,
    evaluates to zero); `argmax` lists the children that reach it and `ties`
    counts the strategies built from such maximal choices.  The maps are
    keyed by node id, and each shared node is valued once.

    With `existential` set, forall nodes bear no strategy and are not
    descended into: the root then bears a strategy iff some strategy avoids
    forall nodes, and its value is the best value among those strategies."""

    def __init__(self, interp: Interpretation, tree: GameTree, existential: bool = False):
        self.interp = interp
        self.sr = interp.semiring
        self.tree = tree
        self.existential = existential
        self.value: Dict[int, object] = {}
        self.has_strategy: Dict[int, bool] = {}
        self.argmax: Dict[int, List[int]] = {}
        self.ties: Dict[int, int] = {}
        self._run(tree.root)

    def _run(self, root: GameNode):
        value, has_strategy, argmax, ties = self.value, self.has_strategy, self.argmax, self.ties
        sr, existential = self.sr, self.existential
        read = _leaf_reader(self.interp)

        def run(node: GameNode):
            if id(node) in value:
                return
            kind = node.kind
            if kind == "leaf":
                val, has, count = read(node.formula, node.env), True, 1
            elif kind == "forall" and existential:
                val, has, count = sr.zero, False, 0
            elif kind == "and" or kind == "forall":
                val, has, count = sr.one, True, 1
                for c in node.children:
                    run(c)
                    val = sr.mul(val, value[id(c)])
                    has = has and has_strategy[id(c)]
                    count *= ties[id(c)]
            else:
                best = None
                for c in node.children:
                    run(c)
                    if not has_strategy[id(c)]:
                        continue
                    v = value[id(c)]
                    if best is None or sr.lt(best, v):
                        best = v
                has = best is not None
                val = best if has else sr.zero
                tops = argmax[id(node)] = [
                    i
                    for i, c in enumerate(node.children)
                    if has_strategy[id(c)] and value[id(c)] == val
                ]
                count = sum(ties[id(node.children[i])] for i in tops)
            value[id(node)] = val
            has_strategy[id(node)] = has
            ties[id(node)] = count

        run(root)

    def extract(self, node: Optional[GameNode] = None) -> Strategy:
        """The strategy that takes the first maximal child at every choice
        node; a shared node yields one shared sub-strategy."""
        memo: Dict[int, Strategy] = {}

        def go(node: GameNode) -> Strategy:
            if id(node) in memo:
                return memo[id(node)]
            if not self.has_strategy[id(node)]:
                raise PreconditionError("no strategy exists over this universe")
            if node.kind == "leaf":
                out = Strategy(node.formula, node.env, None, ())
            elif node.kind in ("and", "forall"):
                kids = tuple(go(c) for c in node.children)
                out = Strategy(node.formula, node.env, node.tags, kids)
            else:
                i = self.argmax[id(node)][0]
                out = Strategy(node.formula, node.env, node.tags[i], (go(node.children[i]),))
            memo[id(node)] = out
            return out

        return go(node or self.tree.root)

    def tie_count(self, node: Optional[GameNode] = None) -> int:
        return self.ties[id(node or self.tree.root)]

    def stream(self, node: Optional[GameNode] = None) -> Iterator[Strategy]:
        node = node or self.tree.root
        if not self.has_strategy[id(node)]:
            return iter(())
        # below a strategy-bearing node every node reached bears one
        return _strategies(node, lambda n: self.argmax[id(n)], self.ties, STRATEGY_GUARD)


@dataclass
class OptimalResult:
    value: object
    strategy: Strategy
    all_optimal_count: int
    dp: _OptimalDP = field(repr=False)

    def stream_optimal(self) -> Iterator[Strategy]:
        """All strategies assembled from locally maximal choices.  With an
        absorbing zero in play a globally optimal strategy may fall outside
        this family; the class-membership checks below do their own search.
        The strategies under each child of an and/forall node are listed, so
        more than `STRATEGY_GUARD` of them raise `GuardExceeded`."""
        return self.dp.stream()


def optimal(interp: Interpretation, formula: Formula) -> OptimalResult:
    """Optimal value and one optimal strategy by argmax dynamic programming;
    requires a linearly ordered, additively idempotent semiring."""
    tree = build_game_tree(formula, interp.universe)
    _require_maxplus(interp.semiring)
    dp = _OptimalDP(interp, tree)
    return OptimalResult(dp.value[id(tree.root)], dp.extract(), dp.tie_count(), dp)


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


def _map_strategy(s: Strategy, f) -> Strategy:
    children = tuple(_map_strategy(c, f) for c in s.children)
    if s.kind == "exists":
        tag = f(s.tag)
    elif s.kind == "forall":
        pairs = sorted(zip((f(b) for b in s.tag), children), key=lambda p: p[0])
        tag = tuple(b for b, _ in pairs)
        children = tuple(c for _, c in pairs)
    else:
        tag = s.tag
    return Strategy(s.formula, _map_env(s.env, f), tag, children)


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

    def walk(node: Strategy, g: Dict[int, int]) -> Strategy:
        mapper = lambda e: g.get(e, e)
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
                g2 = dict(g)
                g2[i] = j
                new_child = walk(child, g2)
                new_tag = j
            else:
                new_child = walk(child, g)
                new_tag = mapper(node.tag)
            return Strategy(node.formula, _map_env(node.env, mapper), new_tag, (new_child,))
        if node.kind == "forall":
            i = eliminated(g)
            kept_children = []
            kept_tags = []
            for b, child in zip(node.tag, node.children):
                if b == i:
                    dropped.append((node, child))
                    continue
                kept_children.append(walk(child, g))
                kept_tags.append(mapper(b))
            order = sorted(range(len(kept_tags)), key=lambda idx: kept_tags[idx])
            return Strategy(
                node.formula,
                _map_env(node.env, mapper),
                tuple(kept_tags[idx] for idx in order),
                tuple(kept_children[idx] for idx in order),
            )
        return Strategy(
            node.formula,
            _map_env(node.env, mapper),
            node.tag,
            tuple(walk(c, g) for c in node.children),
        )

    out = walk(s, {})
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
    branch whose instantiation avoids its own literals."""
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))

    def compact_node(v: Strategy) -> Strategy:
        tags = list(v.tag)
        children = list(v.children)
        pivot = None
        for idx, (b, child) in enumerate(zip(tags, children)):
            if b not in literal_elements(child):
                pivot = idx
                break
        if pivot is None:
            raise PreconditionError(
                f"strategy relies on forall at {v.formula!r}; compaction needs an "
                "almost existential strategy"
            )
        base = children[pivot]
        i_l = tags[pivot]
        blocked = witnesses(base) | literal_elements(base)
        new_children = []
        for idx, (b, child) in enumerate(zip(tags, children)):
            if idx != pivot and b not in blocked:
                new_children.append(swap_instantiation(base, i_l, b))
            else:
                new_children.append(child)
        return Strategy(v.formula, v.env, tuple(tags), tuple(new_children))

    def walk(node: Strategy, level: int) -> Strategy:
        rebuilt = Strategy(
            node.formula,
            node.env,
            node.tag,
            tuple(walk(c, level) for c in node.children),
        )
        if rebuilt.kind == "forall" and metrics(rebuilt.formula).qr_forall == level:
            return compact_node(rebuilt)
        return rebuilt

    out = s
    for level in range(1, m + 1):
        out = walk(out, level)
    validate_strategy(out, universe)
    return out


def translate_almost_existential(s: Strategy, n: int) -> Strategy:
    """Translate an almost existential strategy over {1..n+r} into one over
    {1..n} with support contained in the original's.

    The strategy is wrapped under a fresh outer forall, compacted level by
    level, one branch is picked, the r overflow elements are swapped onto
    unused ones, and the forall children instantiating overflow elements are
    deleted.  Raises when fewer than r fresh elements remain (the theoretical
    sufficient bound is n >= c_{r+1}(|psi|+1) + r, see `c_constants`)."""
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
    chosen = compacted.children[0]
    out = chosen
    for a, b in zip(need, frees):
        out = _map_strategy(out, lambda e, a=a, b=b: b if e == a else (a if e == b else e))

    def prune(node: Strategy) -> Strategy:
        if node.kind == "forall":
            kept = [
                (b, prune(child))
                for b, child in zip(node.tag, node.children)
                if b <= n
            ]
            return Strategy(
                node.formula,
                node.env,
                tuple(b for b, _ in kept),
                tuple(c for _, c in kept),
            )
        return Strategy(node.formula, node.env, node.tag, tuple(prune(c) for c in node.children))

    out = prune(out)
    validate_strategy(out, n)
    if any(e > n for e in literal_elements(out)):
        raise PreconditionError("translation left an overflow literal element")
    return out
