"""First-order abstract syntax in negation normal form, for two quantifier
flavors: standard FO (Exists/Forall, equality atoms allowed) and the
distinct-quantifier fragment (quantifiers carry ``distinct=True``, no equality
atoms), plus the syntactic transformations used by the rewriting pipelines.

Terms are variable names (str) or universe elements (int) for instantiated
formulae.  Negation exists only on atoms; `negate` dualizes an arbitrary AST.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, SemlogError

Term = Union[str, int]


class FlavorError(SemlogError):
    """Formula is in the wrong quantifier flavor for the operation."""


@dataclass(frozen=True)
class Top:
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class Bottom:
    def __repr__(self):
        return "false"


@dataclass(frozen=True)
class Atom:
    rel: str
    args: Tuple[Term, ...]
    positive: bool = True

    def __repr__(self):
        body = f"{self.rel}({', '.join(map(str, self.args))})"
        return body if self.positive else f"~{body}"


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term
    positive: bool = True

    def __repr__(self):
        op = "=" if self.positive else "!="
        return f"{self.left} {op} {self.right}"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"
    distinct: bool = False

    def __repr__(self):
        q = "E!" if self.distinct else "E"
        return f"{q} {self.var}. {self.body}"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"
    distinct: bool = False

    def __repr__(self):
        q = "A!" if self.distinct else "A"
        return f"{q} {self.var}. {self.body}"


Formula = Union[Top, Bottom, Atom, Eq, And, Or, Exists, Forall]

TRUE = Top()
FALSE = Bottom()


def make_and(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def make_or(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def negate(f: Formula) -> Formula:
    """NNF dual: flips atoms, swaps and/or and the quantifiers."""
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


def bound_vars(f: Formula) -> set:
    out = set()
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            out.add(g.var)
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def flavor(f: Formula) -> str:
    """'fo', 'foneq', 'quantifier-free' (no equality), or 'mixed'."""
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


@dataclass(frozen=True)
class FormulaMetrics:
    size: int
    qr: int
    qr_forall: int


def metrics(f: Formula) -> FormulaMetrics:
    """Node count (every AST node counts one), quantifier rank, and the
    nesting depth of universal quantifiers."""
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


def size(f: Formula) -> int:
    return metrics(f).size


def qr(f: Formula) -> int:
    return metrics(f).qr


def qr_forall(f: Formula) -> int:
    return metrics(f).qr_forall


_FRESH = 0


def fresh_var(stem: str, avoid) -> str:
    global _FRESH
    if stem not in avoid:
        return stem
    while True:
        _FRESH += 1
        name = f"{stem}_{_FRESH}"
        if name not in avoid:
            return name


def substitute(f: Formula, mapping: dict) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
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
    """stem1, stem2, ... without the names in avoid."""
    names = (f"{stem}{i}" for i in itertools.count(1))
    return (name for name in names if name not in avoid)


def _rename_binders(f: Formula, names: Iterator[str]) -> Formula:
    """Give the binders, in pre-order, the successive names drawn from names,
    and rename their bound occurrences along."""

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
    """Alpha-rename bound variables to a canonical left-to-right numbering,
    so alpha-equivalent formulae become syntactically equal."""
    return _rename_binders(f, _numbered(stem))


def path_get(f: Formula, path: Sequence[int]) -> Formula:
    node = f
    for i in path:
        cs = children(node)
        if i < 0 or i >= len(cs):
            raise PreconditionError(f"invalid path {list(path)} at {node!r}")
        node = cs[i]
    return node


def visible_vars_at(f: Formula, path: Sequence[int]) -> set:
    """Variables usable at a path: free variables of the host plus binders
    passed on the way down."""
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
    """Replace the node addressed by a root-to-node child-index path."""
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
    """All root-to-node paths whose node satisfies pred, in pre-order."""
    out = []

    def walk(node, path):
        if pred(node):
            out.append(tuple(path))
        for i, c in enumerate(children(node)):
            walk(c, path + [i])

    walk(f, [])
    return out


def simplify_constants(f: Formula) -> Formula:
    """Constant folding that is sound in every semiring: false|x = x,
    true&x = x, false&x = false, equalities between identical terms, and
    constant quantifier bodies (Ex.false = false, Ax.true = true)."""
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
    """Drop repeated disjuncts (up to bound renaming); sound when addition is
    idempotent."""
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


# ---------------------------------------------------------------------------
# FO <-> FO-distinct translations
# ---------------------------------------------------------------------------


def fo_to_foneq(f: Formula) -> Formula:
    """Translate an FO sentence into the distinct-quantifier flavor.

    Each quantifier over y splits into the instantiations of y by the visible
    free variables plus a distinct quantifier; equality atoms between distinct
    bound variables become constants.
    """
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
    """Translate back: a distinct quantifier over y becomes a standard one
    guarded by inequalities (disjoined equalities for the universal case)."""
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


# ---------------------------------------------------------------------------
# psi_n: hardcoding the semantics at universe size n
# ---------------------------------------------------------------------------


def psi_n(f: Formula, n: int) -> Formula:
    """The size-n unfolding: existentially pick n distinct elements and replace
    every quantifier by the n-fold disjunction/conjunction over them."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not is_sentence(f) or not is_fo(f):
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

    return _exists_distinct(f, n, "u", lambda xs: star(f, xs))


def _exists_distinct(f: Formula, n: int, stem: str, matrix) -> Formula:
    """E x1 ... E xn (pairwise xi != xj & matrix(xs)), the xs named stem1,
    stem2, ... apart from the variables of f; just matrix([]) for n = 0."""
    xs = list(itertools.islice(_numbered(stem, free_vars(f) | bound_vars(f)), n))
    out = make_and([Eq(a, b, positive=False) for a, b in itertools.combinations(xs, 2)]
                   + [matrix(xs)])
    for x in reversed(xs):
        out = Exists(x, out)
    return out


# ---------------------------------------------------------------------------
# Prenexing of universal-free sentences
# ---------------------------------------------------------------------------


def flatten_sigma1(f: Formula) -> Formula:
    """Pull every existential quantifier of a universal-free FO sentence to the
    front.  Valid in all additively idempotent semirings (pulling over a
    disjunction duplicates the other disjunct once per element)."""
    if any(isinstance(g, Forall) for g in subformulas(f)):
        raise PreconditionError("input contains a universal quantifier")
    if not is_fo(f):
        raise FlavorError("flatten expects the FO flavor")

    used = set(free_vars(f))

    def pull(g: Formula):
        """Returns (prefix variables, matrix)."""
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


# ---------------------------------------------------------------------------
# Existential prenex DNF for universal-free FO-distinct formulae
# ---------------------------------------------------------------------------


def uniquify_bound(f: Formula, stem: str = "w") -> Formula:
    """Give every binder a globally fresh name (w1, w2, ... avoiding the
    formula's existing variables)."""
    return _rename_binders(f, _numbered(stem, free_vars(f) | bound_vars(f)))


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
    """Bring a universal-free FO-distinct formula into the shape
    E! z1 ... E! zk (theta_1 | ... | theta_m), each theta a conjunction of
    literals.

    Nested quantifiers from both sides of a binary connective are merged into
    one prefix; disjuncts of the inner operand are re-instantiated over all
    distinct tuples from the combined prefix.  The equivalence is exact on
    universes large enough to instantiate the whole prefix (the only regime
    the rewriting pipelines use it in).
    """
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
            # Instantiation tuples also range over the visible free variables:
            # the merged prefix excludes their values, which the separate
            # prefixes of the operands did not necessarily do.
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


def assemble_prenex_dnf(zs: Sequence[str], disjuncts: Sequence[Formula]) -> Formula:
    out = make_or(list(disjuncts))
    for z in reversed(zs):
        out = Exists(z, out, distinct=True)
    return out
