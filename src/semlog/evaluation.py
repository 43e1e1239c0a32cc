"""The semiring valuation of FO and FO-distinct formulae.

Disjunction adds, conjunction multiplies, quantifiers sum/multiply over the
universe; a distinct quantifier ranges over the universe minus the elements
instantiating the free variables visible in the quantified subformula.
Equality atoms take their Boolean truth value.

Compile once, run many times: `compile_formula` turns a formula into a plan,
`run_plan` values it on any interpretation, and `evaluate` does both.
`compile_formula` keeps the last plan it made, so a formula valued again
right after is not compiled again.  In a plan a variable is a binder level:
the root's free variables take levels 0..k-1 in sorted order and a binder at
quantifier depth d takes level k+d, so a run keeps its assignment in a list
of slots indexed by level (constants take slots past the levels).  Within a
run an inner node is memoized on the values of its free levels (the bare
value when there is one) unless they cover every binder in scope: then the
visits to the node carry pairwise distinct assignments and no entry could be
hit.  Leaves are never memoized.
Leaves check universe membership only for constants and, in atoms, the
root's elements; bound elements come from the universe.

Compiling is a fold of `formulas` and a run is one loop over a stack of
frames, so neither recurses, however deep or wide the formula.  A quantifier
frame holds its running value and its place in its domain, a connective
frame its left value; a node's memo is checked when it is reached and filled
when its frame is done, in the order a recursive walk would.

This is the one valuation in semlog: game trees and strategies take their
quantifier ranges (`quantifier_range`) and read their leaves (`_leaf_reader`,
the leaf rule that plans compile) from here.  Triviality does not evaluate:
on the symmetric all-false interpretation a structural walk
(`preservation.is_trivial_at`) decides it without building a universe.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import PreconditionError
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
)
from .interpretations import Interpretation


def quantifier_range(f, universe: Sequence[int], excluded=()) -> list:
    """The legal instantiations of the quantifier node f: the whole universe,
    or for a distinct quantifier the universe minus the excluded elements
    (the ones bound to the free variables of f)."""
    if not f.distinct:
        return list(universe)
    return [b for b in universe if b not in excluded]


def _leaf_reader(interp: Interpretation):
    """read(f, env): the value on interp of the constant, literal or equality
    leaf f, its variables bound by env (pairs of variable and element).  This
    is the leaf rule that `compile_formula` compiles into plan leaves: an atom
    reads its table entry and needs every element in the universe, an
    equality takes its Boolean value and checks only its constants."""
    universe = interp.universe
    get, default = interp.table.get, interp.default
    one, zero = interp.semiring.one, interp.semiring.zero

    def element(t, env):
        if isinstance(t, str):
            for v, e in env:
                if v == t:
                    return e
            raise PreconditionError(f"uninstantiated free variable {t!r}")
        if t not in universe:
            raise PreconditionError(f"element {t} not in universe")
        return t

    def read(f, env):
        kind = type(f)
        if kind is Atom:
            args = tuple([element(t, env) for t in f.args])
            for e in args:
                if e not in universe:
                    raise PreconditionError(f"element {e} not in universe")
            return get((f.rel, args), default)[not f.positive]
        if kind is Eq:
            same = element(f.left, env) == element(f.right, env)
            return one if same == f.positive else zero
        if kind is Top or kind is Bottom:
            return one if kind is Top else zero
        raise PreconditionError(f"not a formula: {f!r}")

    return read


# Plan nodes are opcode-headed tuples.  Leaves: (_ATOM1, rel, slot, side,
# checked) for unary atoms, (_ATOM, rel, args reader, side, checked), (_EQ,
# slot, slot, positive, checked) and (_CONST, is_one); side is 0 for a positive
# literal, and checked lists the slots whose element must lie in the universe.
# Inner nodes: (_OR/_AND, memo, key, left, right) and (_EXISTS/_FORALL, memo,
# key, level, body, excluded, formula), where memo is the memo index (-1:
# none), key reads the memo key off the slots and excluded lists the levels a
# distinct quantifier skips (None for a plain quantifier).
_ATOM1, _ATOM, _EQ, _CONST, _OR, _AND, _EXISTS, _FORALL = range(8)
_INNER = {Or: _OR, And: _AND, Exists: _EXISTS, Forall: _FORALL}
_MISS = object()


def _no_args(slots):
    return ()


class Plan(NamedTuple):
    """A compiled formula: the node tree, the root's free variables, the
    initial slots (constants filled in), the slots leaves check, the memo count."""

    root: tuple
    free: tuple
    blank: tuple
    checked: frozenset
    memos: int


def compile_formula(f: Formula) -> Plan:
    """Compile a formula into a plan for `run_plan`.  The last plan is kept
    (one entry, keyed on the formula object): a plan is a tuple that no run
    mutates, so every caller that compiles the same formula again, `evaluate`
    among them, gets it back without compiling."""
    return _last_plan(f)


def _compile(f: Formula) -> Plan:
    k = len(f.free)
    width = k
    constants = []  # constant j (1-based) lives in slot -j
    checked = set()
    memos = 0
    # The levels of the names in scope, and per binder in scope the level it
    # shadows.  _fold finishes a subtree before it starts the next, so a
    # binder sets its entry in kids and restores it in step (None: unbound).
    scope = dict(zip(f.free, range(k)))
    shadowed = []

    def kids(g):
        kind = type(g)
        if kind is And or kind is Or:
            return g.left, g.right
        if kind is Exists or kind is Forall:
            shadowed.append(scope.get(g.var))
            scope[g.var] = k + len(shadowed) - 1
            return (g.body,)
        return ()

    def step(g, *below):
        nonlocal width, memos
        kind = type(g)
        if kind is Exists or kind is Forall:
            scope[g.var] = shadowed.pop()
        depth = len(shadowed)
        if kind in _INNER:
            levels = tuple(sorted([scope[v] for v in g.free]))
            head = (_INNER[kind], -1, None)
            if len(levels) < k + depth:
                head = (_INNER[kind], memos, itemgetter(*levels) if levels else _no_args)
                memos += 1
            if kind is And or kind is Or:
                return (*head, *below)
            width = max(width, k + depth + 1)
            return (*head, k + depth, below[0], levels if g.distinct else None, g)
        if kind is Top or kind is Bottom:
            return (_CONST, kind is Top)
        if kind is not Atom and kind is not Eq:
            raise PreconditionError(f"not a formula: {g!r}")
        is_atom = kind is Atom
        slots, check = [], []
        for t in g.args if is_atom else (g.left, g.right):
            if isinstance(t, str):
                slot = scope[t]
                if is_atom and slot < k:
                    check.append(slot)
            else:
                constants.append(t)
                slot = -len(constants)
                check.append(slot)
            slots.append(slot)
        checked.update(check)
        check = tuple(check)
        if not is_atom:
            return (_EQ, slots[0], slots[1], g.positive, check)
        side = 0 if g.positive else 1
        if len(slots) == 1:
            return (_ATOM1, g.rel, slots[0], side, check)
        return (_ATOM, g.rel, itemgetter(*slots) if slots else _no_args, side, check)

    root = _fold(f, step, kids)
    blank = (None,) * width + tuple(reversed(constants))
    return Plan(root, f.free, blank, frozenset(checked), memos)


_last_plan = _LastBuilt(_compile)


def run_plan(plan: Plan, interp: Interpretation, env: Optional[dict] = None):
    """The value of a compiled formula on interp; free variables are bound by env."""
    given = env or {}
    slots = list(plan.blank)
    for level, v in enumerate(plan.free):
        if v not in given:
            raise PreconditionError(f"uninstantiated free variable {v!r}")
        slots[level] = given[v]
    universe = interp.universe
    bad = {i for i in plan.checked if slots[i] not in universe}
    sr = interp.semiring
    add, mul, zero, one = sr.add, sr.mul, sr.zero, sr.one
    get, default = interp.table.get, interp.default
    memos = [{} for _ in range(plan.memos)]
    # The nodes being valued, root first, with their memo keys: a quantifier
    # frame is [node, key, running value, iterator over its domain], a
    # connective frame [node, key, left value (_MISS until known)].
    frames = []
    node = plan.root
    while True:
        op = node[0]
        if op < _CONST:
            if bad and not bad.isdisjoint(node[4]):
                out = next(i for i in node[4] if i in bad)
                raise PreconditionError(f"element {slots[out]} not in universe")
            if op == _ATOM1:
                val = get((node[1], (slots[node[2]],)), default)[node[3]]
            elif op == _ATOM:
                val = get((node[1], node[2](slots)), default)[node[3]]
            else:
                val = one if (slots[node[1]] == slots[node[2]]) == node[3] else zero
        elif op == _CONST:
            val = one if node[1] else zero
        else:
            key, val = None, _MISS
            if node[1] >= 0:
                key = node[2](slots)
                val = memos[node[1]].get(key, _MISS)
            if val is _MISS:
                if op < _EXISTS:
                    frames.append([node, key, _MISS])
                    node = node[3]
                    continue
                excluded = node[5]
                domain = universe if excluded is None else quantifier_range(
                    node[6], universe, [slots[i] for i in excluded])
                frames.append([node, key, zero if op == _EXISTS else one, iter(domain)])
        # Hand val (_MISS: none yet, for a new quantifier frame) up the
        # frames until one of them has a node left to value.
        while frames:
            frame = frames[-1]
            node = frame[0]
            op = node[0]
            if op >= _EXISTS:
                if val is not _MISS:
                    frame[2] = (add if op == _EXISTS else mul)(frame[2], val)
                b = next(frame[3], _MISS)
                if b is not _MISS:
                    slots[node[3]] = b
                    node = node[4]
                    break
                val = frame[2]
            elif frame[2] is _MISS:
                frame[2] = val
                node = node[4]
                break
            else:
                val = (add if op == _OR else mul)(frame[2], val)
            frames.pop()
            if node[1] >= 0:
                memos[node[1]][frame[1]] = val
        else:
            return val


def evaluate(interp: Interpretation, f: Formula, env: Optional[dict] = None):
    """The value of an instantiated formula; free variables are bound by env."""
    return run_plan(compile_formula(f), interp, dict(env or {}))


def evaluate_set(interp: Interpretation, sentences: Iterable[Formula]):
    """Product of member valuations; the empty set evaluates to one."""
    plans = [compile_formula(f) for f in sentences]
    return interp.semiring.prod(run_plan(p, interp) for p in plans)
