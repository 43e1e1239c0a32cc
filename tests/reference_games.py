"""A frozen copy of the game-tree code that the label-shared trees in
`semlog.games` replaced, kept as the oracle of the differential test in
test_game_reference.py: unshared tree construction, strategy enumeration,
the strategy valuation and the argmax dynamic program, with the dict-based
leaf rule they read.  Every node is built and visited once per path, and its
label recomputes free variables.  Do not optimize it: its value is that it is
the old semantics, line for line."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from semlog.errors import GuardExceeded, PreconditionError
from semlog.formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Or,
    Top,
    free_vars,
)
from semlog.evaluation import evaluate
from semlog.games import OptimalResult, Strategy, SumOfStrategiesReport, _require_maxplus
from semlog.interpretations import Interpretation

STRATEGY_GUARD = 10**6
TREE_NODE_GUARD = 5 * 10**5

Env = Tuple[Tuple[str, int], ...]


def quantifier_range(f, universe, excluded=()) -> list:
    if not f.distinct:
        return list(universe)
    return [b for b in universe if b not in excluded]


def _resolve(interp: Interpretation, term, env: dict):
    if isinstance(term, str):
        if term not in env:
            raise PreconditionError(f"uninstantiated free variable {term!r}")
        return env[term]
    if term not in interp.universe:
        raise PreconditionError(f"element {term} not in universe")
    return term


def leaf_value(interp: Interpretation, f: Formula, env: dict):
    sr = interp.semiring
    if isinstance(f, Top):
        return sr.one
    if isinstance(f, Bottom):
        return sr.zero
    if isinstance(f, Atom):
        args = tuple(_resolve(interp, a, env) for a in f.args)
        return interp.literal(f.rel, args, f.positive)
    if isinstance(f, Eq):
        same = _resolve(interp, f.left, env) == _resolve(interp, f.right, env)
        truth = same if f.positive else not same
        return sr.one if truth else sr.zero
    raise PreconditionError(f"not a formula: {f!r}")


def _restrict_env(formula: Formula, env: dict) -> Env:
    fv = free_vars(formula)
    return tuple(sorted((v, env[v]) for v in fv))


def _kind(formula: Formula) -> str:
    if isinstance(formula, Or):
        return "or"
    if isinstance(formula, And):
        return "and"
    if isinstance(formula, Exists):
        return "exists"
    if isinstance(formula, Forall):
        return "forall"
    return "leaf"


class GameNode:
    """A node of the game tree; the label is (formula, env)."""

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
    instantiations for distinct quantifiers.
    """
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    else:
        universe = tuple(universe)
    count = 0

    def node(g: Formula, env: dict) -> GameNode:
        nonlocal count
        count += 1
        if count > guard:
            raise GuardExceeded(f"game tree exceeds {guard} nodes")
        env_t = _restrict_env(g, env)
        if isinstance(g, (Top, Bottom, Atom, Eq)):
            return GameNode(g, env_t, (), ())
        if isinstance(g, (Or, And)):
            return GameNode(g, env_t, (node(g.left, env), node(g.right, env)), (0, 1))
        if isinstance(g, (Exists, Forall)):
            domain = quantifier_range(g, universe, [e for _, e in env_t])
            kids = []
            for b in domain:
                env2 = dict(env)
                env2[g.var] = b
                kids.append(node(g.body, env2))
            return GameNode(g, env_t, tuple(kids), tuple(domain))
        raise PreconditionError(f"not a formula: {g!r}")

    root = node(formula, {})
    return GameTree(root, universe, count)


def count_strategies(tree: GameTree) -> int:
    memo: Dict[int, int] = {}

    def go(node: GameNode) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        if node.kind == "leaf":
            out = 1
        elif node.kind in ("or", "exists"):
            out = sum(go(c) for c in node.children)
        else:
            out = 1
            for c in node.children:
                out *= go(c)
        memo[id(node)] = out
        return out

    return go(tree.root)


def enumerate_strategies(tree: GameTree, guard: int = STRATEGY_GUARD) -> Iterator[Strategy]:
    total = count_strategies(tree)
    if total > guard:
        raise GuardExceeded(f"{total} strategies exceed the guard {guard}")

    def expand(node: GameNode) -> List[Strategy]:
        if node.kind == "leaf":
            return [Strategy(node.formula, node.env, None, ())]
        if node.kind in ("or", "exists"):
            out = []
            for tag, child in zip(node.tags, node.children):
                for sub in expand(child):
                    out.append(Strategy(node.formula, node.env, tag, (sub,)))
            return out
        combos = [expand(c) for c in node.children]
        out = []
        for picks in itertools.product(*combos):
            out.append(Strategy(node.formula, node.env, node.tags, tuple(picks)))
        return out

    yield from expand(tree.root)


def eval_strategy(interp: Interpretation, s: Strategy):
    """Product of the leaf values."""
    sr = interp.semiring
    out = sr.one
    for leaf in Strategy.leaves_of(s):
        g = leaf.formula
        if isinstance(g, (Top, Forall)):
            # a childless forall node has an empty quantifier range: empty product
            continue
        if isinstance(g, (Exists, Or, And)):
            # childless choice nodes only arise from empty exists ranges: empty sum
            out = sr.mul(out, sr.zero)
        else:
            out = sr.mul(out, leaf_value(interp, g, dict(leaf.env)))
    return out


class _OptimalDP:
    """Argmax dynamic program.  `value` is the evaluation of each subtree: a
    choice node takes the maximum over its strategy-bearing children, or zero
    without one (every strategy-less subtree, such as an empty exists range,
    evaluates to zero); `argmax` lists the children that reach it.

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
        self._run(tree.root)

    def _run(self, node: GameNode):
        if node.kind == "leaf":
            val = leaf_value(self.interp, node.formula, dict(node.env))
            has = True
        elif node.kind == "forall" and self.existential:
            val = self.sr.zero
            has = False
        elif node.kind in ("and", "forall"):
            val = self.sr.one
            has = True
            for c in node.children:
                self._run(c)
                val = self.sr.mul(val, self.value[id(c)])
                has = has and self.has_strategy[id(c)]
        else:
            best = None
            for c in node.children:
                self._run(c)
                if not self.has_strategy[id(c)]:
                    continue
                v = self.value[id(c)]
                if best is None or self.sr.lt(best, v):
                    best = v
            has = best is not None
            val = best if has else self.sr.zero
            self.argmax[id(node)] = [
                i
                for i, c in enumerate(node.children)
                if self.has_strategy[id(c)] and self.value[id(c)] == val
            ]
        self.value[id(node)] = val
        self.has_strategy[id(node)] = has

    def extract(self, node: Optional[GameNode] = None) -> Strategy:
        node = node or self.tree.root
        if not self.has_strategy[id(node)]:
            raise PreconditionError("no strategy exists over this universe")
        if node.kind == "leaf":
            return Strategy(node.formula, node.env, None, ())
        if node.kind in ("and", "forall"):
            kids = tuple(self.extract(c) for c in node.children)
            return Strategy(node.formula, node.env, node.tags, kids)
        i = self.argmax[id(node)][0]
        return Strategy(node.formula, node.env, node.tags[i], (self.extract(node.children[i]),))

    def tie_count(self, node: Optional[GameNode] = None) -> int:
        node = node or self.tree.root
        if not self.has_strategy[id(node)]:
            return 0
        if node.kind == "leaf":
            return 1
        if node.kind in ("and", "forall"):
            out = 1
            for c in node.children:
                out *= self.tie_count(c)
            return out
        return sum(self.tie_count(node.children[i]) for i in self.argmax[id(node)])

    def stream(self, node: Optional[GameNode] = None) -> Iterator[Strategy]:
        node = node or self.tree.root
        if not self.has_strategy[id(node)]:
            return
        if node.kind == "leaf":
            yield Strategy(node.formula, node.env, None, ())
            return
        if node.kind in ("and", "forall"):
            pools = [list(self.stream(c)) for c in node.children]
            for picks in itertools.product(*pools):
                yield Strategy(node.formula, node.env, node.tags, tuple(picks))
            return
        for i in self.argmax[id(node)]:
            for sub in self.stream(node.children[i]):
                yield Strategy(node.formula, node.env, node.tags[i], (sub,))


def sum_of_strategies_check(
    interp: Interpretation, formula: Formula, guard: int = STRATEGY_GUARD
) -> SumOfStrategiesReport:
    tree = build_game_tree(formula, interp.universe)
    sr = interp.semiring
    total = sr.sum(eval_strategy(interp, s) for s in enumerate_strategies(tree, guard))
    value = evaluate(interp, formula)
    return SumOfStrategiesReport(value == total, value, total, count_strategies(tree))


def optimal(interp: Interpretation, formula: Formula) -> OptimalResult:
    tree = build_game_tree(formula, interp.universe)
    _require_maxplus(interp.semiring)
    dp = _OptimalDP(interp, tree)
    return OptimalResult(dp.value[id(tree.root)], dp.extract(), dp.tie_count(), dp)


def has_existential_optimal(
    interp: Interpretation, formula: Formula
) -> Tuple[bool, Optional[Strategy]]:
    tree = build_game_tree(formula, interp.universe)
    target = evaluate(interp, formula)
    dp = _OptimalDP(interp, tree, existential=True)
    root = id(tree.root)
    if not dp.has_strategy[root] or dp.value[root] != target:
        return False, None
    return True, dp.extract()
