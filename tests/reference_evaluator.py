"""A frozen copy of the tree-walking evaluator that the compiled kernel in
`semlog.evaluation` replaced, kept as the oracle of the differential test in
test_evaluation.py.  It walks the AST on every call, recomputes free variables
and memoizes every (subformula, relevant assignment) pair.  Do not optimize
it: its value is that it is the old semantics, line for line."""

from __future__ import annotations

from typing import Dict, Optional

from semlog.errors import PreconditionError
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
from semlog.interpretations import Interpretation


def quantifier_range(f, env: dict, universe, fv=None) -> list:
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
