"""A frozen copy of the recursive formula walks that the one explicit-stack
fold in `semlog.formulas` replaced, kept as the oracle of the differential
test in test_formula_walks.py: free variables (also the per-subformula table
that `games` kept), metrics, pre-order subformulas, the reprs, `render`,
negation, constant folding, capture-avoiding substitution, binder renaming,
the FO <-> FO-distinct translations, psi_n, prenexing, the prenex DNF, the
path helpers and the structural triviality walk.  Each recurses into both
operands of every And/Or node.  Only the choice of a fresh name is shared
with `semlog` (`fresh_var`), since it is no walk.  Do not optimize it: its
value is that it is the old semantics, line for line."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Sequence, Tuple

from semlog.errors import PreconditionError, SemlogError
from semlog.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    FlavorError,
    Forall,
    Formula,
    FormulaMetrics,
    Or,
    Top,
    fresh_var,
    make_and,
    make_or,
)


def show(f) -> str:
    """The repr of f as the recursive __repr__s printed it."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        body = f"{f.rel}({', '.join(map(str, f.args))})"
        return body if f.positive else f"~{body}"
    if isinstance(f, Eq):
        op = "=" if f.positive else "!="
        return f"{f.left} {op} {f.right}"
    if isinstance(f, And):
        return f"({show(f.left)} & {show(f.right)})"
    if isinstance(f, Or):
        return f"({show(f.left)} | {show(f.right)})"
    if isinstance(f, Exists):
        q = "E!" if f.distinct else "E"
        return f"{q} {f.var}. {show(f.body)}"
    if isinstance(f, Forall):
        q = "A!" if f.distinct else "A"
        return f"{q} {f.var}. {show(f.body)}"
    return str(f)


def negate(f: Formula) -> Formula:
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bottom):
        return TRUE
    if isinstance(f, Atom):
        return Atom(f.rel, f.args, not f.positive)
    if isinstance(f, Eq):
        return Eq(f.left, f.right, not f.positive)
    if isinstance(f, And):
        return Or(negate(f.left), negate(f.right))
    if isinstance(f, Or):
        return And(negate(f.left), negate(f.right))
    if isinstance(f, Exists):
        return Forall(f.var, negate(f.body), f.distinct)
    if isinstance(f, Forall):
        return Exists(f.var, negate(f.body), f.distinct)
    raise PreconditionError(f"not a formula: {f!r}")


def children(f: Formula) -> Tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Exists, Forall)):
        return (f.body,)
    return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Atom):
        return frozenset(a for a in f.args if isinstance(a, str))
    if isinstance(f, Eq):
        return frozenset(a for a in (f.left, f.right) if isinstance(a, str))
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    return frozenset()


def free_names(f: Formula) -> Dict[int, Tuple[str, ...]]:
    """The sorted free variables of every subformula of f, keyed by id (the
    table `games` built for its node labels)."""
    table: Dict[int, Tuple[str, ...]] = {}

    def walk(g) -> frozenset:
        kind = type(g)
        if kind is Or or kind is And:
            out = walk(g.left) | walk(g.right)
        elif kind is Exists or kind is Forall:
            out = walk(g.body) - {g.var}
        elif kind is Atom or kind is Eq:
            terms = g.args if kind is Atom else (g.left, g.right)
            out = frozenset(t for t in terms if isinstance(t, str))
        else:
            out = frozenset()
        table[id(g)] = tuple(sorted(out))
        return out

    walk(f)
    return table


def bound_vars(f: Formula) -> set:
    out = set()
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            out.add(g.var)
    return out


def flavor(f: Formula) -> str:
    has_fo = has_neq = has_eq = False
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            if g.distinct:
                has_neq = True
            else:
                has_fo = True
        elif isinstance(g, Eq):
            has_eq = True
    if has_fo and has_neq:
        return "mixed"
    if has_neq:
        return "mixed" if has_eq else "foneq"
    if has_fo or has_eq:
        return "fo"
    return "quantifier-free"


def is_foneq(f: Formula) -> bool:
    return flavor(f) in ("foneq", "quantifier-free")


def is_fo(f: Formula) -> bool:
    return flavor(f) in ("fo", "quantifier-free")


def metrics(f: Formula) -> FormulaMetrics:
    if isinstance(f, (Top, Bottom, Atom, Eq)):
        return FormulaMetrics(1, 0, 0)
    subs = [metrics(c) for c in children(f)]
    size = 1 + sum(m.size for m in subs)
    qr = max(m.qr for m in subs)
    qf = max(m.qr_forall for m in subs)
    if isinstance(f, (Exists, Forall)):
        qr += 1
        if isinstance(f, Forall):
            qf += 1
    return FormulaMetrics(size, qr, qf)


def substitute(f: Formula, mapping: dict) -> Formula:
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Atom):
        return Atom(f.rel, tuple(mapping.get(a, a) for a in f.args), f.positive)
    if isinstance(f, Eq):
        return Eq(mapping.get(f.left, f.left), mapping.get(f.right, f.right), f.positive)
    if isinstance(f, (And, Or)):
        return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, (Exists, Forall)):
        live = {k: v for k, v in mapping.items() if k != f.var and k in free_vars(f.body)}
        if not live:
            return type(f)(f.var, f.body, f.distinct)
        clash = {v for v in live.values() if isinstance(v, str)}
        var, body = f.var, f.body
        if var in clash:
            new = fresh_var(var, clash | free_vars(body) | bound_vars(body) | set(live))
            body = substitute(body, {var: new})
            var = new
        return type(f)(var, substitute(body, live), f.distinct)
    raise PreconditionError(f"not a formula: {f!r}")


def _numbered(stem: str, avoid=()) -> Iterator[str]:
    names = (f"{stem}{i}" for i in itertools.count(1))
    return (name for name in names if name not in avoid)


def _rename_binders(f: Formula, names: Iterator[str]) -> Formula:
    def walk(g: Formula, env: dict) -> Formula:
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(env.get(a, a) for a in g.args), g.positive)
        if isinstance(g, Eq):
            return Eq(env.get(g.left, g.left), env.get(g.right, g.right), g.positive)
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Exists, Forall)):
            name = next(names)
            return type(g)(name, walk(g.body, {**env, g.var: name}), g.distinct)
        raise PreconditionError(f"not a formula: {g!r}")

    return walk(f, {})


def canonical_bound_names(f: Formula, stem: str = "v") -> Formula:
    return _rename_binders(f, _numbered(stem))


def uniquify_bound(f: Formula, stem: str = "w") -> Formula:
    return _rename_binders(f, _numbered(stem, free_vars(f) | bound_vars(f)))


def visible_vars_at(f: Formula, path: Sequence[int]) -> set:
    out = set(free_vars(f))
    node = f
    for i in path:
        if isinstance(node, (Exists, Forall)):
            out.add(node.var)
        cs = children(node)
        if i < 0 or i >= len(cs):
            raise PreconditionError(f"invalid path {list(path)} at {node!r}")
        node = cs[i]
    return out


def substitute_subformula(host: Formula, path: Sequence[int], replacement: Formula) -> Formula:
    free_repl = free_vars(replacement)
    if not free_repl <= visible_vars_at(host, path):
        captured = sorted(free_repl - visible_vars_at(host, path))
        raise PreconditionError(f"variable capture: {captured} not visible at path")

    def walk(node: Formula, rest: Sequence[int]) -> Formula:
        if not rest:
            return replacement
        i, *tail = rest
        cs = children(node)
        if i < 0 or i >= len(cs):
            raise PreconditionError(f"invalid path at {node!r}")
        if isinstance(node, (And, Or)):
            l, r = node.left, node.right
            return type(node)(walk(l, tail) if i == 0 else l, walk(r, tail) if i == 1 else r)
        return type(node)(node.var, walk(node.body, tail), node.distinct)

    return walk(host, list(path))


def find_subformula_paths(f: Formula, pred) -> list:
    out = []

    def walk(node, path):
        if pred(node):
            out.append(tuple(path))
        for i, c in enumerate(children(node)):
            walk(c, path + [i])

    walk(f, [])
    return out


def simplify_constants(f: Formula) -> Formula:
    if isinstance(f, Eq) and f.left == f.right:
        return TRUE if f.positive else FALSE
    if isinstance(f, (And, Or)):
        l = simplify_constants(f.left)
        r = simplify_constants(f.right)
        if isinstance(f, Or):
            if isinstance(l, Bottom):
                return r
            if isinstance(r, Bottom):
                return l
            return Or(l, r)
        if isinstance(l, Bottom) or isinstance(r, Bottom):
            return FALSE
        if isinstance(l, Top):
            return r
        if isinstance(r, Top):
            return l
        return And(l, r)
    if isinstance(f, Exists):
        b = simplify_constants(f.body)
        if isinstance(b, Bottom):
            return FALSE
        return Exists(f.var, b, f.distinct)
    if isinstance(f, Forall):
        b = simplify_constants(f.body)
        if isinstance(b, Top):
            return TRUE
        return Forall(f.var, b, f.distinct)
    return f


def dedupe_or_idempotent(f: Formula) -> Formula:
    parts = []
    seen = set()

    def collect(g):
        if isinstance(g, Or):
            collect(g.left)
            collect(g.right)
        else:
            key = canonical_bound_names(g)
            if key not in seen:
                seen.add(key)
                parts.append(g)

    collect(f)
    return make_or(parts)


def fo_to_foneq(f: Formula) -> Formula:
    if not is_fo(f):
        raise FlavorError("input must be an FO formula")

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom, Atom)):
            return g
        if isinstance(g, Eq):
            if not isinstance(g.left, str) or not isinstance(g.right, str):
                raise PreconditionError("translation expects variable terms")
            same = g.left == g.right
            return (TRUE if same else FALSE) if g.positive else (FALSE if same else TRUE)
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (Exists, Forall)):
            outer = sorted(free_vars(g))
            parts = [walk(substitute(g.body, {g.var: x})) for x in outer]
            rest = type(g)(g.var, walk(g.body), distinct=True)
            if isinstance(g, Exists):
                return make_or(parts + [rest])
            return make_and(parts + [rest])
        raise PreconditionError(f"not a formula: {g!r}")

    return walk(f)


def foneq_to_fo(f: Formula) -> Formula:
    if not is_foneq(f):
        raise FlavorError("input must be an FO-distinct formula")

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom, Atom)):
            return g
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (Exists, Forall)):
            outer = sorted(free_vars(g))
            body = walk(g.body)
            if isinstance(g, Exists):
                guards = [Eq(g.var, x, positive=False) for x in outer]
                return Exists(g.var, make_and(guards + [body]))
            guards = [Eq(g.var, x, positive=True) for x in outer]
            return Forall(g.var, make_or(guards + [body]))
        raise PreconditionError(f"not a formula: {g!r}")

    return walk(f)


def psi_n(f: Formula, n: int) -> Formula:
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if free_vars(f) or not is_fo(f):
        raise FlavorError("psi_n expects an FO sentence")

    def star(g: Formula, xs) -> Formula:
        if isinstance(g, (Top, Bottom, Atom, Eq)):
            return g
        if isinstance(g, (And, Or)):
            return type(g)(star(g.left, xs), star(g.right, xs))
        if isinstance(g, Exists):
            return make_or([star(substitute(g.body, {g.var: x}), xs) for x in xs])
        if isinstance(g, Forall):
            return make_and([star(substitute(g.body, {g.var: x}), xs) for x in xs])
        raise PreconditionError(f"not a formula: {g!r}")

    xs = list(itertools.islice(_numbered("u", free_vars(f) | bound_vars(f)), n))
    out = make_and([Eq(a, b, positive=False) for a, b in itertools.combinations(xs, 2)]
                   + [star(f, xs)])
    for x in reversed(xs):
        out = Exists(x, out)
    return out


def flatten_sigma1(f: Formula) -> Formula:
    if any(isinstance(g, Forall) for g in subformulas(f)):
        raise PreconditionError("input contains a universal quantifier")
    if not is_fo(f):
        raise FlavorError("flatten expects the FO flavor")

    used = set(free_vars(f))

    def pull(g: Formula):
        if isinstance(g, (Top, Bottom, Atom, Eq)):
            return [], g
        if isinstance(g, Exists):
            var = g.var
            body = g.body
            if var in used:
                new = fresh_var(var, used | bound_vars(body) | free_vars(body))
                body = substitute(body, {var: new})
                var = new
            used.add(var)
            inner_prefix, matrix = pull(body)
            return [var] + inner_prefix, matrix
        if isinstance(g, (And, Or)):
            lp, lm = pull(g.left)
            rp, rm = pull(g.right)
            return lp + rp, type(g)(lm, rm)
        raise PreconditionError(f"not a formula: {g!r}")

    prefix, matrix = pull(f)
    out = matrix
    for v in reversed(prefix):
        out = Exists(v, out)
    return out


def _conj_parts(g: Formula) -> Optional[list]:
    if isinstance(g, (Atom, Top, Bottom)):
        return [g]
    if isinstance(g, And):
        l = _conj_parts(g.left)
        r = _conj_parts(g.right)
        if l is None or r is None:
            return None
        return l + r
    return None


def existential_prenex_dnf(f: Formula) -> Tuple[Tuple[str, ...], Tuple[Formula, ...]]:
    if any(isinstance(g, Forall) for g in subformulas(f)):
        raise PreconditionError("universal node found")
    if not is_foneq(f):
        raise FlavorError("expected FO-distinct flavor")

    f = uniquify_bound(f)

    def walk(g: Formula):
        if isinstance(g, (Top, Bottom, Atom)):
            return (), (g,)
        if isinstance(g, Exists):
            zs, ds = walk(g.body)
            return (g.var,) + zs, ds
        if isinstance(g, (And, Or)):
            zl, dl = walk(g.left)
            zr, dr = walk(g.right)
            prefix = list(zl) + list(zr)
            pool = prefix + sorted(free_vars(g))
            out = []
            if isinstance(g, Or):
                for psi in dl:
                    for tup in itertools.permutations(pool, len(zl)):
                        out.append(substitute(psi, dict(zip(zl, tup))))
                for theta in dr:
                    for tup in itertools.permutations(pool, len(zr)):
                        out.append(substitute(theta, dict(zip(zr, tup))))
            else:
                for psi in dl:
                    for theta in dr:
                        for tup_l in itertools.permutations(pool, len(zl)):
                            inst_p = substitute(psi, dict(zip(zl, tup_l)))
                            parts_p = _conj_parts(inst_p)
                            for tup in itertools.permutations(pool, len(zr)):
                                inst = substitute(theta, dict(zip(zr, tup)))
                                parts_t = _conj_parts(inst)
                                if parts_p is None or parts_t is None:
                                    raise PreconditionError(
                                        "disjunct is not a literal conjunction"
                                    )
                                out.append(make_and(parts_p + parts_t))
            uniq = []
            for d in out:
                d = simplify_constants(d)
                if isinstance(d, Bottom):
                    continue
                if d not in uniq:
                    uniq.append(d)
            return tuple(prefix), tuple(uniq)
        raise PreconditionError(f"not a formula: {g!r}")

    zs, ds = walk(f)
    return tuple(zs), tuple(ds)


_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def render(f: Formula) -> str:
    def go(g: Formula, prec: int) -> str:
        if isinstance(g, Top):
            return "true"
        if isinstance(g, Bottom):
            return "false"
        if isinstance(g, Atom):
            body = f"{g.rel}({', '.join(str(a) for a in g.args)})"
            return body if g.positive else f"~{body}"
        if isinstance(g, Eq):
            op = "=" if g.positive else "!="
            return f"{g.left} {op} {g.right}"
        if isinstance(g, Or):
            s = f"{go(g.left, _PREC_OR)} | {go(g.right, _PREC_OR + 1)}"
            return f"({s})" if prec > _PREC_OR else s
        if isinstance(g, And):
            s = f"{go(g.left, _PREC_AND)} & {go(g.right, _PREC_AND + 1)}"
            return f"({s})" if prec > _PREC_AND else s
        if isinstance(g, (Exists, Forall)):
            q = "E" if isinstance(g, Exists) else "A"
            if g.distinct:
                q += "!"
            s = f"{q} {g.var}. {go(g.body, 0)}"
            return f"({s})" if prec > 0 else s
        raise SemlogError(f"not a formula: {g!r}")

    return go(f, 0)


def is_trivial_at(formula: Formula, n: int) -> bool:
    if not is_foneq(formula):
        raise PreconditionError("triviality is defined for FO-distinct formulae")
    fv = sorted(free_vars(formula))
    if n < len(fv) + 1:
        raise PreconditionError(f"n = {n} too small for the instantiation of {fv}")
    universe = range(1, n + 1)

    def walk(f):
        kind = type(f)
        if kind is Exists or kind is Forall:
            free, value, error = walk(f.body)
            free = free - {f.var}
            return (free, value, error) if n > len(free) else (free, kind is Forall, None)
        if kind is And or kind is Or:
            (lv, left, lerr), (rv, right, rerr) = walk(f.left), walk(f.right)
            return lv | rv, (left and right) if kind is And else (left or right), lerr or rerr
        if kind is Atom:
            bad = [t for t in f.args if not isinstance(t, str) and t not in universe]
            error = PreconditionError(f"element {bad[0]} not in universe") if bad else None
            return frozenset(t for t in f.args if isinstance(t, str)), False, error
        if kind is Top or kind is Bottom:
            return frozenset(), kind is Top, None
        raise PreconditionError(f"not a formula: {f!r}")

    _, value, error = walk(formula)
    if error:
        raise error
    return value
