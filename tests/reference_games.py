"""A frozen copy of the game-tree code that `semlog.games` replaced, kept as
the oracle of the differential tests in test_game_reference.py.

The first part is the code that the label-shared trees replaced: unshared
tree construction, strategy enumeration, the strategy valuation and the
argmax dynamic program (with its strategy extraction), with the dict-based
leaf rule they read.  Every node is built and visited once per path, and its
label recomputes free variables.

The second part is the recursive strategy code that the stack-based walks
replaced: building a strategy from choices, validation, relabelling and
element swaps, the downward translation, compaction and the almost
existential translation, with the classification helpers they read.

The third part is the two strategy searches of `semlog.preservation` as they
were before enumeration carried each strategy's value: they value every
enumerated strategy on its own.

Do not optimize any part: its value is that it is the old semantics, line
for line."""

from __future__ import annotations

import itertools
from fractions import Fraction
from dataclasses import dataclass, field
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
    metrics,
    qr,
    size,
)
from semlog.evaluation import evaluate
from semlog.games import (
    Strategy,
    StrategyStats,
    SumOfStrategiesReport,
    _require_maxplus,
    c_constants,
)
from semlog.interpretations import Interpretation
from semlog.semirings import INF

from reference_formulas import free_names

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


@dataclass
class OptimalResult:
    value: object
    strategy: Strategy
    all_optimal_count: int
    dp: _OptimalDP = field(repr=False)

    def stream_optimal(self) -> Iterator[Strategy]:
        return self.dp.stream()


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


# ---------------------------------------------------------------------------
# The recursive strategy walks
# ---------------------------------------------------------------------------


def leaves_of(node: Strategy) -> Iterator[Strategy]:
    stack = [node]
    while stack:
        cur = stack.pop()
        if not cur.children:
            yield cur
        else:
            stack.extend(cur.children)


def strategy_nodes(s: Strategy) -> Iterator[Strategy]:
    stack = [s]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(cur.children)


def resolve_args(leaf: Strategy) -> Tuple[int, ...]:
    env = dict(leaf.env)
    return tuple(env[a] if isinstance(a, str) else a for a in leaf.formula.args)


def witnesses(s: Strategy) -> frozenset:
    return frozenset(n.tag for n in strategy_nodes(s) if n.kind == "exists")


def literal_elements(s: Strategy) -> frozenset:
    out = set()
    for leaf in leaves_of(s):
        if isinstance(leaf.formula, Atom):
            out.update(resolve_args(leaf))
    return frozenset(out)


def classify(s: Strategy) -> StrategyStats:
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


def strategy_from_choices(node, chooser) -> Strategy:
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


def validate_strategy(s: Strategy, universe) -> None:
    """Structural check that s is a strategy of the game tree over universe."""
    if isinstance(universe, int):
        universe = tuple(range(1, universe + 1))
    universe = tuple(universe)
    free: Dict[int, tuple] = {}

    def walk(node: Strategy, env: dict):
        g = node.formula
        if id(g) not in free:
            free.update(free_names(g))
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


def translate_strategy(
    s: Strategy, n: int, r: Optional[int] = None, strict_bound: bool = True
) -> Tuple[Strategy, List[Tuple[Strategy, Strategy]]]:
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


def compact_almost_existential(s: Strategy, m: int, universe) -> Strategy:
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


# ---------------------------------------------------------------------------
# Part three: the strategy searches of `preservation`
# ---------------------------------------------------------------------------

STRICT_SEMIRING_IDS = {"viterbi", "tropical", "lukasiewicz", "doubt"}


def has_almost_existential_optimal(
    interp: Interpretation, formula: Formula, guard: int = 10**6
) -> Tuple[bool, Optional[Strategy]]:
    tree = build_game_tree(formula, interp.universe)
    target = evaluate(interp, formula)
    for s in enumerate_strategies(tree, guard):
        if eval_strategy(interp, s) == target and classify(s).cls != "relies_on_forall":
            return True, s
    return False, None


def _numeric(v) -> Fraction:
    if v == INF:
        return None
    return Fraction(v)


def eliminate_one_valuations(
    interp: Interpretation, formula: Formula, guard: int = 10**6
) -> Interpretation:
    sr = interp.semiring
    if sr.id not in STRICT_SEMIRING_IDS:
        raise PreconditionError(f"{sr.id} is not one of the strict semirings")
    v0 = evaluate(interp, formula)
    if v0 == sr.zero:
        raise PreconditionError("formula evaluates to zero")
    if all(
        v != sr.one for key in interp.atom_keys() for v in interp.pair(*key)
    ):
        return interp
    tree = build_game_tree(formula, interp.universe)
    values = {sr.zero}
    max_leaves = 0
    for s in enumerate_strategies(tree, guard):
        values.add(eval_strategy(interp, s))
        leaves = sum(1 for leaf in leaves_of(s) if isinstance(leaf.formula, Atom))
        max_leaves = max(max_leaves, leaves)
    e = max(max_leaves, 1)
    numeric = sorted(x for x in (_numeric(v) for v in values) if x is not None)
    gaps = [b - a for a, b in zip(numeric, numeric[1:]) if b > a]
    delta = min(gaps) if gaps else Fraction(1)

    def scan(cond, form):
        for k in itertools.count(2):
            s = form(k)
            if cond(s):
                return s

    if sr.id == "viterbi":
        bound = 1 - delta / Fraction(v0)
        s_new = scan(lambda s: s ** e > bound, lambda k: 1 - Fraction(1, k))
    elif sr.id == "lukasiewicz":
        s_new = scan(lambda s: s > 1 - delta / e, lambda k: 1 - Fraction(1, k))
    else:  # tropical, doubt: small positive value below delta/e
        s_new = scan(lambda s: s < delta / e, lambda k: Fraction(1, k))
    out = interp.with_values(lambda v: s_new if v == sr.one else v)
    if evaluate(out, formula) == sr.zero:
        raise PreconditionError("replacement unexpectedly zeroed the formula")
    return out
