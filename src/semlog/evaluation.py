"""The semiring valuation of FO and FO-distinct formulae.

Disjunction adds, conjunction multiplies, quantifiers sum/multiply over the
universe; a distinct quantifier ranges over the universe minus the elements
instantiating the free variables visible in the quantified subformula.
Equality atoms take their Boolean truth value.  Results are memoized per
(subformula, relevant assignment) within one call.

This is the one valuation in semlog: triviality is this evaluation over the
Boolean semiring, and game trees and strategies take their quantifier ranges
(`quantifier_range`) and leaf values (`leaf_value`) from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

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
    free_vars,
)
from .interpretations import (
    Interpretation,
    Vocabulary,
    enumerate_interpretations,
)
from .semirings import Semiring


def quantifier_range(f, env: dict, universe: Sequence[int], fv=None) -> list:
    """The legal instantiations of the quantifier node f under env: the whole
    universe, or for a distinct quantifier the universe minus the elements
    bound to its free variables (fv, when the caller has them at hand)."""
    if not f.distinct:
        return list(universe)
    excluded = {env[v] for v in (free_vars(f) if fv is None else fv)}
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
    """The value of a constant, literal or equality leaf under env."""
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


class _Evaluator:
    def __init__(self, interp: Interpretation):
        self.interp = interp
        self.sr = interp.semiring
        self.memo: Dict = {}
        self.fv_cache: Dict[int, frozenset] = {}

    def fv(self, f: Formula) -> frozenset:
        got = self.fv_cache.get(id(f))
        if got is None:
            got = free_vars(f)
            self.fv_cache[id(f)] = got
        return got

    def run(self, f: Formula, env: dict):
        fv = self.fv(f)
        missing = [v for v in fv if v not in env]
        if missing:
            raise PreconditionError(f"uninstantiated free variable {missing[0]!r}")
        key = (id(f), tuple(sorted((v, env[v]) for v in fv)))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        val = self.compute(f, env)
        self.memo[key] = val
        return val

    def compute(self, f: Formula, env: dict):
        sr = self.sr
        if isinstance(f, Or):
            return sr.add(self.run(f.left, env), self.run(f.right, env))
        if isinstance(f, And):
            return sr.mul(self.run(f.left, env), self.run(f.right, env))
        if isinstance(f, (Exists, Forall)):
            vals = []
            for b in quantifier_range(f, env, self.interp.universe, self.fv(f)):
                env2 = dict(env)
                env2[f.var] = b
                vals.append(self.run(f.body, env2))
            return sr.sum(vals) if isinstance(f, Exists) else sr.prod(vals)
        return leaf_value(self.interp, f, env)


def evaluate(interp: Interpretation, f: Formula, env: Optional[dict] = None):
    """The value of an instantiated formula; free variables are bound by env."""
    return _Evaluator(interp).run(f, dict(env or {}))


def evaluate_set(interp: Interpretation, sentences: Iterable[Formula]):
    """Product of member valuations; the empty set evaluates to one."""
    sr = interp.semiring
    return sr.prod(evaluate(interp, f) for f in sentences)


@dataclass
class EntailmentVerdict:
    holds_on_sample: bool
    witness: Optional[Interpretation] = None
    checked: int = 0

    def __bool__(self):
        return self.holds_on_sample


def entails_at(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    semiring: Semiring,
    sizes: Sequence[int],
    value_set: Sequence,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> EntailmentVerdict:
    """Check value(phi) <= value(psi) over every enumerated model-defining
    interpretation of the given sizes.  Sound for refutation only; a holding
    verdict is evidence bounded by the search space."""
    if vocab is None:
        vocab = Vocabulary.of_formula(*(list(phi) + list(psi)))
    checked = 0
    for size in sizes:
        for interp in enumerate_interpretations(semiring, vocab, size, value_set, guard):
            checked += 1
            if not semiring.leq(evaluate_set(interp, phi), evaluate_set(interp, psi)):
                return EntailmentVerdict(False, interp, checked)
    return EntailmentVerdict(True, None, checked)
