"""First-order abstract syntax in negation normal form, for two quantifier
flavors: standard FO (Exists/Forall, equality atoms allowed) and the
distinct-quantifier fragment (quantifiers carry ``distinct=True``, no equality
atoms), plus the syntactic transformations used by the rewriting pipelines.

Terms are variable names (str) or universe elements (int) for instantiated
formulae.  Negation exists only on atoms; `negate` dualizes an arbitrary AST.

Every node carries its sorted free variables (`free`), its `FormulaMetrics`
(`metrics`) and its hash, derived from its children's when it is built;
`==` and `hash` do not recurse, so they take formulas of any width or depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, SemlogError

Term = Union[str, int]


class FlavorError(SemlogError):
    """Formula is in the wrong quantifier flavor for the operation."""


@dataclass(frozen=True, slots=True)
class FormulaMetrics:
    """Node count (every AST node counts one), quantifier rank, and the
    nesting depth of universal quantifiers."""

    size: int
    qr: int
    qr_forall: int


_LEAF_METRICS = FormulaMetrics(1, 0, 0)


@dataclass(frozen=True, eq=False, slots=True)
class _Node:
    """The base of the formula nodes: what a node carries besides its fields."""

    free: Tuple[str, ...] = field(init=False, repr=False)  # sorted
    metrics: FormulaMetrics = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        """The one rule for a node's free variables, metrics and hash, read off
        its kids'; the hash is a dataclass's, that of the field tuple."""
        kind = type(self)
        if kind is And or kind is Or:
            free = tuple(sorted({*self.left.free, *self.right.free}))
            m, n = self.left.metrics, self.right.metrics
            m = FormulaMetrics(1 + m.size + n.size, max(m.qr, n.qr), max(m.qr_forall, n.qr_forall))
        elif kind is Exists or kind is Forall:
            free, m = tuple([v for v in self.body.free if v != self.var]), self.body.metrics
            m = FormulaMetrics(1 + m.size, m.qr + 1, m.qr_forall + (kind is Forall))
        else:
            terms = self.args if kind is Atom else (self.left, self.right) if kind is Eq else ()
            free, m = tuple(sorted({t for t in terms if isinstance(t, str)})), _LEAF_METRICS
        fields = tuple([getattr(self, name) for name in kind.__match_args__])
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "metrics", m)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """The dataclass rule (same class, equal fields) on a stack of node pairs."""
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


@dataclass(frozen=True, eq=False, slots=True)
class Top(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class Bottom(_Node):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class Atom(_Node):
    rel: str
    args: Tuple[Term, ...]
    positive: bool = True


@dataclass(frozen=True, eq=False, slots=True)
class Eq(_Node):
    left: Term
    right: Term
    positive: bool = True


@dataclass(frozen=True, eq=False, slots=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, slots=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, slots=True)
class Exists(_Node):
    var: str
    body: "Formula"
    distinct: bool = False


@dataclass(frozen=True, eq=False, slots=True)
class Forall(_Node):
    var: str
    body: "Formula"
    distinct: bool = False


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


def children(f: Formula) -> Tuple[Formula, ...]:
    kind = type(f)
    if kind is And or kind is Or:
        return (f.left, f.right)
    return (f.body,) if kind is Exists or kind is Forall else ()


def _with_kids(g, *below) -> Formula:
    """The one rebuild rule: g's kind over the kids below, a binder keeping
    its variable and flavor; a leaf is returned as it is."""
    kind = type(g)
    if kind is And or kind is Or:
        return kind(*below)
    if kind is Exists or kind is Forall:
        return kind(g.var, *below, g.distinct)
    if kind is Top or kind is Bottom or kind is Atom or kind is Eq:
        return g
    raise PreconditionError(f"not a formula: {g!r}")


_UP = object()  # on the fold's stack: the node and kid count below it are done


def _fold(root, step, kids=children):
    """root folded bottom-up from an explicit stack: each node g becomes
    step(g, *values), the values being what the nodes of kids(g) became, left
    to right.  Every formula walk is a fold (visits read `_preorder`) except
    the two hot game walks, the game-tree builder and
    `games.strategy_from_choices`, which are flat loops over their own stacks
    with no per-node callback; either way neither width nor nesting costs
    recursion.  A walk whose environment changes at binders folds nodes that
    carry it, (formula, env, ...).  kids runs on the nodes in pre-order, so
    names drawn there are drawn in order."""
    values, stack = [], [root]
    while stack:
        g = stack.pop()
        if g is _UP:
            n, g = stack.pop(), stack.pop()
            if n == 1:
                values[-1] = step(g, values[-1])
            else:
                below = values[-n:]
                del values[-n:]
                values.append(step(g, *below))
        else:
            below = kids(g)
            if below:
                stack += (g, len(below), _UP)
                stack += below[::-1]
            else:
                values.append(step(g))
    return values[0]


def _preorder(f, kids=children) -> Iterator:
    """f and what lies below it by kids, each node before its kids(node)."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(kids(g)))


class _LastBuilt:
    """build(f, *args) with a one-entry memo: a call with the same object f
    (a formula or a game tree) and equal args returns the value built last.
    The entry holds f, so its id cannot be reused while the entry lives; a
    miss drops the old entry before building, so no two values are kept at
    once, and a build that raises stores nothing.  Sound only for values and
    args that nothing mutates."""

    __slots__ = ("build", "f", "args", "value")

    def __init__(self, build):
        self.build = build
        self.f = self.args = self.value = None

    def __call__(self, f, *args):
        if f is self.f and args == self.args:
            return self.value
        self.f = self.args = self.value = None
        value = self.build(f, *args)
        self.f, self.args, self.value = f, args, value
        return value


def _chain(f: Formula, kind) -> list:
    """The operands of the kind-chain (And or Or) rooted at f, left to right;
    [f] when f is not a kind node."""
    split = lambda g: (g.left, g.right) if type(g) is kind else ()
    return [g for g in _preorder(f, split) if type(g) is not kind]


_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


def _leaf_text(g) -> str:
    """The repr of a constant, literal or equality leaf; str of anything else."""
    kind = type(g)
    if kind is Atom:
        body = f"{g.rel}({', '.join(map(str, g.args))})"
        return body if g.positive else f"~{body}"
    if kind is Eq:
        return f"{g.left} {'=' if g.positive else '!='} {g.right}"
    if kind is Top or kind is Bottom:
        return "true" if kind is Top else "false"
    return str(g)


def _show(f: Formula) -> str:
    """The repr of a formula: connectives parenthesized, quantifiers bare."""

    def step(g, *below):
        kind = type(g)
        if kind is And or kind is Or:
            return f"({below[0]} {'&' if kind is And else '|'} {below[1]})"
        if kind is Exists or kind is Forall:
            q = ("E" if kind is Exists else "A") + ("!" if g.distinct else "")
            return f"{q} {g.var}. {below[0]}"
        return _leaf_text(g)

    return _fold(f, step)


Top.__repr__ = Bottom.__repr__ = Atom.__repr__ = Eq.__repr__ = _leaf_text
And.__repr__ = Or.__repr__ = Exists.__repr__ = Forall.__repr__ = _show


def negate(f: Formula) -> Formula:
    """NNF dual: flips atoms, swaps and/or and the quantifiers."""

    def step(g, *below):
        kind = type(g)
        if kind is Top or kind is Bottom:
            return FALSE if kind is Top else TRUE
        if kind is Atom or kind is Eq:
            return replace(g, positive=not g.positive)
        if kind is And or kind is Or:
            return _DUAL[kind](*below)
        if kind is Exists or kind is Forall:
            return _DUAL[kind](g.var, below[0], g.distinct)
        raise PreconditionError(f"not a formula: {g!r}")

    return _fold(f, step)


def subformulas(f: Formula) -> Iterator[Formula]:
    return _preorder(f)


def free_vars(f: Formula) -> frozenset:
    return frozenset(f.free)


def bound_vars(f: Formula) -> set:
    return {g.var for g in subformulas(f) if isinstance(g, (Exists, Forall))}


def is_sentence(f: Formula) -> bool:
    return not f.free


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


def metrics(f: Formula) -> FormulaMetrics:
    return f.metrics


def size(f: Formula) -> int:
    return f.metrics.size


def qr(f: Formula) -> int:
    return f.metrics.qr


def qr_forall(f: Formula) -> int:
    return f.metrics.qr_forall


def fresh_var(stem: str, avoid) -> str:
    """stem itself, or else the first of stem_1, stem_2, ... outside avoid."""
    return stem if stem not in avoid else next(_numbered(f"{stem}_", avoid))


def _renamed(node, *below) -> Formula:
    """The step of the renaming walks, whose nodes are (g, term mapping) and at
    a binder (g, mapping, its new variable): g rebuilt from what its kids
    became, its terms mapped (a binder without kids keeps its body)."""
    g, mapping = node[0], node[1]
    if isinstance(g, (Exists, Forall)):
        return type(g)(node[2], below[0] if below else g.body, g.distinct)
    if isinstance(g, Atom):
        return Atom(g.rel, tuple([mapping.get(a, a) for a in g.args]), g.positive)
    if isinstance(g, Eq):
        return Eq(mapping.get(g.left, g.left), mapping.get(g.right, g.right), g.positive)
    return _with_kids(g, *below)


def substitute(f: Formula, mapping: dict) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""

    def kids(node: list):
        g, mapping = node
        if isinstance(g, (And, Or)):
            return [g.left, mapping], [g.right, mapping]
        if not isinstance(g, (Exists, Forall)):
            return ()
        live = {k: v for k, v in mapping.items() if k != g.var and k in g.body.free}
        clash = {v for v in live.values() if isinstance(v, str)}
        var, body = g.var, g.body
        if var in clash:
            var = fresh_var(var, clash | free_vars(body) | bound_vars(body) | set(live))
            body = substitute(body, {g.var: var})
        node.append(var)
        return ([body, live],) if live else ()

    return _fold([f, mapping], _renamed, kids)


def _numbered(stem: str, avoid=()) -> Iterator[str]:
    """stem1, stem2, ... without the names in avoid."""
    names = (f"{stem}{i}" for i in itertools.count(1))
    return (name for name in names if name not in avoid)


def _rename_binders(f: Formula, name) -> Formula:
    """Rename each binder g to name(g), called on the binders in pre-order,
    and its bound occurrences along."""

    def kids(node: list):
        g, env = node
        if isinstance(g, (And, Or)):
            return [g.left, env], [g.right, env]
        if not isinstance(g, (Exists, Forall)):
            return ()
        node.append(name(g))
        return ([g.body, {**env, g.var: node[2]}],)

    return _fold([f, {}], _renamed, kids)


def canonical_bound_names(f: Formula, stem: str = "v") -> Formula:
    """Alpha-rename bound variables to a canonical left-to-right numbering
    that skips f's free variables, so alpha-equivalent formulae become
    syntactically equal."""
    names = _numbered(stem, f.free)
    return _rename_binders(f, lambda g: next(names))


def _path_nodes(f: Formula, path: Sequence[int]) -> list:
    """The nodes on a root-to-node child-index path, f first."""
    nodes = [f]
    for i in path:
        cs = children(nodes[-1])
        if i < 0 or i >= len(cs):
            raise PreconditionError(f"invalid path {list(path)} at {nodes[-1]!r}")
        nodes.append(cs[i])
    return nodes


def path_get(f: Formula, path: Sequence[int]) -> Formula:
    return _path_nodes(f, path)[-1]


def visible_vars_at(f: Formula, path: Sequence[int]) -> set:
    """Variables usable at a path: free variables of the host plus binders
    passed on the way down."""
    passed = _path_nodes(f, path)[:-1]
    return set(free_vars(f)) | {g.var for g in passed if isinstance(g, (Exists, Forall))}


def substitute_subformula(host: Formula, path: Sequence[int], replacement: Formula) -> Formula:
    """Replace the node addressed by a root-to-node child-index path."""
    captured = sorted(free_vars(replacement) - visible_vars_at(host, path))
    if captured:
        raise PreconditionError(f"variable capture: {captured} not visible at path")
    out = replacement
    for node, i in zip(reversed(_path_nodes(host, path)[:-1]), reversed(path)):
        below = list(children(node))
        below[i] = out
        out = _with_kids(node, *below)
    return out


def find_subformula_paths(f: Formula, pred) -> list:
    """All root-to-node paths whose node satisfies pred, in pre-order."""
    kids = lambda np: tuple((c, np[1] + (i,)) for i, c in enumerate(children(np[0])))
    return [path for node, path in _preorder((f, ()), kids) if pred(node)]


def simplify_constants(f: Formula) -> Formula:
    """Constant folding that is sound in every semiring: false|x = x,
    true&x = x, false&x = false, equalities between identical terms, and
    constant quantifier bodies (Ex.false = false, Ax.true = true)."""

    def step(g, *below):
        kind = type(g)
        if kind is Eq and g.left == g.right:
            return TRUE if g.positive else FALSE
        if kind is Or or kind is And:
            l, r = below
            if kind is And and (isinstance(l, Bottom) or isinstance(r, Bottom)):
                return FALSE
            unit = Bottom if kind is Or else Top
            if isinstance(l, unit):
                return r
            if isinstance(r, unit):
                return l
        elif kind is Exists or kind is Forall:
            # the absorbing body: false under E, true under A
            if isinstance(below[0], Bottom if kind is Exists else Top):
                return below[0]
        return _with_kids(g, *below)

    return _fold(f, step)


def dedupe_or_idempotent(f: Formula) -> Formula:
    """Drop repeated disjuncts (up to bound renaming) from every or-chain of f,
    each chain rebuilt left-nested; sound when addition is idempotent."""

    def step(g, *below):  # below: the operands of g's chain when g is an or
        kind = type(g)
        if kind is Or:
            parts = {}  # canonical renaming -> the first disjunct with it
            for h in below:
                parts.setdefault(canonical_bound_names(h), h)
            return make_or(list(parts.values()))
        return _with_kids(g, *below)

    return _fold(f, step, lambda g: _chain(g, Or) if type(g) is Or else children(g))


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

    def kids(g: Formula):
        """A quantifier's body instantiated by each visible variable, then its body."""
        if not isinstance(g, (Exists, Forall)):
            return children(g)
        return [substitute(g.body, {g.var: x}) for x in g.free] + [g.body]

    def step(g: Formula, *below) -> Formula:
        if isinstance(g, Eq):
            if not isinstance(g.left, str) or not isinstance(g.right, str):
                raise PreconditionError("translation expects variable terms")
            same = g.left == g.right
            return (TRUE if same else FALSE) if g.positive else (FALSE if same else TRUE)
        if isinstance(g, (Exists, Forall)):
            rest = type(g)(g.var, below[-1], distinct=True)
            return (make_or if isinstance(g, Exists) else make_and)([*below[:-1], rest])
        return _with_kids(g, *below)

    return _fold(f, step, kids)


def foneq_to_fo(f: Formula) -> Formula:
    """Translate back: a distinct quantifier over y becomes a standard one
    guarded by inequalities (disjoined equalities for the universal case)."""
    if not is_foneq(f):
        raise FlavorError("input must be an FO-distinct formula")
    def step(g: Formula, *below) -> Formula:
        if isinstance(g, (Exists, Forall)):
            universal = isinstance(g, Forall)
            guards = [Eq(g.var, x, positive=universal) for x in g.free]
            return type(g)(g.var, (make_or if universal else make_and)(guards + [below[0]]))
        return _with_kids(g, *below)

    return _fold(f, step)


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

    def star(xs) -> Formula:
        def kids(node):
            g, env = node
            if isinstance(g, (Exists, Forall)):
                return [(g.body, {**env, g.var: x}) for x in xs]
            return ((g.left, env), (g.right, env)) if isinstance(g, (And, Or)) else ()

        def step(node, *below):
            if isinstance(node[0], (Exists, Forall)):
                return (make_or if isinstance(node[0], Exists) else make_and)(below)
            return _renamed(node, *below)

        return _fold((f, {}), step, kids)

    return _exists_distinct(f, n, "u", star)


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
    if f.metrics.qr_forall:
        raise PreconditionError("input contains a universal quantifier")
    if not is_fo(f):
        raise FlavorError("flatten expects the FO flavor")

    used = set(free_vars(f))

    def name(g: Exists) -> str:
        """g's variable, renamed apart from the ones pulled before it."""
        var = g.var
        if var in used:
            var = fresh_var(var, used | bound_vars(g.body) | free_vars(g.body))
        used.add(var)
        return var

    def strip(g: Formula, *below) -> Formula:
        """g without its existential quantifiers."""
        return below[0] if isinstance(g, Exists) else _with_kids(g, *below)

    g = _rename_binders(f, name)
    out = _fold(g, strip)
    for v in reversed([h.var for h in subformulas(g) if isinstance(h, Exists)]):
        out = Exists(v, out)
    return out


# ---------------------------------------------------------------------------
# Existential prenex DNF for universal-free FO-distinct formulae
# ---------------------------------------------------------------------------


def uniquify_bound(f: Formula, stem: str = "w") -> Formula:
    """Give every binder a globally fresh name (w1, w2, ... avoiding the
    formula's existing variables)."""
    names = _numbered(stem, free_vars(f) | bound_vars(f))
    return _rename_binders(f, lambda g: next(names))


def _conj_parts(g: Formula) -> Optional[list]:
    parts = _chain(g, And)
    return parts if all(isinstance(p, (Atom, Top, Bottom)) for p in parts) else None


def _instances(theta: Formula, zs: Sequence[str], pool: list) -> Iterator[Formula]:
    """theta with zs instantiated by each tuple of distinct names from pool."""
    return (substitute(theta, dict(zip(zs, tup))) for tup in itertools.permutations(pool, len(zs)))


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
    if f.metrics.qr_forall:
        raise PreconditionError("universal node found")
    if not is_foneq(f):
        raise FlavorError("expected FO-distinct flavor")

    f = uniquify_bound(f)

    def step(g: Formula, *below):
        if isinstance(g, (Top, Bottom, Atom)):
            return (), (g,)
        if isinstance(g, Exists):
            zs, ds = below[0]
            return (g.var,) + zs, ds
        if isinstance(g, (And, Or)):
            (zl, dl), (zr, dr) = below
            prefix = list(zl) + list(zr)
            # Instantiation tuples also range over the visible free variables:
            # the merged prefix excludes their values, which the separate
            # prefixes of the operands did not necessarily do.
            pool = prefix + list(g.free)
            if isinstance(g, Or):
                out = [d for zs, ds in below for theta in ds for d in _instances(theta, zs, pool)]
            else:
                out = []
                for psi, theta in itertools.product(dl, dr):
                    for left in map(_conj_parts, _instances(psi, zl, pool)):
                        for right in map(_conj_parts, _instances(theta, zr, pool)):
                            if left is None or right is None:
                                raise PreconditionError("disjunct is not a literal conjunction")
                            out.append(make_and(left + right))
            out = map(simplify_constants, out)
            return tuple(prefix), tuple(dict.fromkeys(d for d in out if not isinstance(d, Bottom)))
        raise PreconditionError(f"not a formula: {g!r}")

    return _fold(f, step)


def assemble_prenex_dnf(zs: Sequence[str], disjuncts: Sequence[Formula]) -> Formula:
    out = make_or(list(disjuncts))
    for z in reversed(zs):
        out = Exists(z, out, distinct=True)
    return out
