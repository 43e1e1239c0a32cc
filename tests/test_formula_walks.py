"""The explicit-stack fold: a differential test of every formula walk
against the frozen recursive copies (reference_formulas.py), of the compiled
kernel against the frozen evaluator (reference_evaluator.py) in values and
semiring operations, and walks over disjunctions far wider than the
recursion limit."""

import contextlib
import time
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_evaluator
import reference_formulas as ref
from semlog import formulas
from semlog.evaluation import compile_formula, evaluate, run_plan
from semlog.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Or,
    make_and,
    make_or,
)
from semlog.interpretations import Interpretation, Vocabulary
from semlog.parser import parse, render
from semlog.preservation import is_trivial_at
from semlog.semirings import BOOLEAN, S3, VITERBI

VOCAB = Vocabulary({"R": 1, "E": 2})
NAMES = ("x", "y", "z")  # few names, so binders shadow each other and names stay free
TERMS = NAMES * 4 + (1, 2, 5)  # 5 lies outside every universe drawn here
CARRIERS = {
    "boolean": (BOOLEAN, [False, True]),
    "s3": (S3, [0, 1, 2]),
    "viterbi": (VITERBI, [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
}


@st.composite
def leaves(draw, distinct: bool):
    kind = draw(st.sampled_from(["atom", "atom", "const"] + ([] if distinct else ["eq"])))
    if kind == "const":
        return draw(st.sampled_from((TRUE, FALSE)))
    term = st.sampled_from(TERMS)
    if kind == "eq":
        return Eq(draw(term), draw(term), draw(st.booleans()))
    rel, arity = draw(st.sampled_from(VOCAB.relations))
    return Atom(rel, tuple(draw(term) for _ in range(arity)), draw(st.booleans()))


@st.composite
def shared_formulas(draw, distinct: bool, steps: int = 6, cap: int = 80):
    """An FO (plain quantifiers, equality atoms) or FO-distinct formula built
    bottom-up from a pool: every new node takes its parts from the pool, so
    subformula objects recur, and a chain step joins several parts left- or
    right-nested.  A node whose tree would exceed cap nodes is not built."""
    pool = [(draw(leaves(distinct)), 1) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, steps))):
        kind = draw(st.sampled_from(["leaf", "and", "or", "exists", "forall", "chain"]))
        part = st.sampled_from(pool)
        if kind in ("and", "or"):
            (left, ls), (right, rs) = draw(part), draw(part)
            node = (And if kind == "and" else Or)(left, right), 1 + ls + rs
        elif kind in ("exists", "forall"):
            body, size = draw(part)
            cls = Exists if kind == "exists" else Forall
            node = cls(draw(st.sampled_from(NAMES)), body, distinct), 1 + size
        elif kind == "chain":
            parts = draw(st.lists(part, min_size=2, max_size=5))
            op = draw(st.sampled_from((And, Or)))
            size = len(parts) - 1 + sum(size for _, size in parts)
            if draw(st.booleans()):
                node = (make_and if op is And else make_or)([p for p, _ in parts]), size
            else:
                out = parts[-1][0]
                for p, _ in reversed(parts[:-1]):
                    out = op(p, out)
                node = out, size
        if kind == "leaf" or node[1] > cap:
            node = draw(leaves(distinct)), 1
        pool.append(node)
    return pool[-1][0]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception type is part of the behaviour compared
        return "raised", type(exc)


def same(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args), new.__name__


def small(f, limit):
    return ref.metrics(f).size <= limit


def dedupe_every_or_chain(f):
    """The frozen top-level dedupe applied to every or-chain, innermost
    first: the rule `dedupe_or_idempotent` follows since it dedupes nested
    chains too."""
    if isinstance(f, Or):
        operands = []
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, Or):
                stack += (g.right, g.left)
            else:
                operands.append(dedupe_every_or_chain(g))
        return ref.dedupe_or_idempotent(make_or(operands))
    if isinstance(f, And):
        return And(dedupe_every_or_chain(f.left), dedupe_every_or_chain(f.right))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, dedupe_every_or_chain(f.body), f.distinct)
    return f


@st.composite
def cases(draw):
    distinct = draw(st.booleans())
    f = draw(shared_formulas(distinct))
    mapping = {name: draw(st.sampled_from(TERMS)) for name in NAMES if draw(st.booleans())}
    return f, mapping, draw(leaves(distinct)), draw(st.integers(0, 50))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_walks_agree_with_recursive_reference(case):
    f, mapping, leaf, pick = case
    assert formulas.free_vars(f) == ref.free_vars(f)
    names = ref.free_names(f)
    for g in ref.subformulas(f):
        assert g.free == names[id(g)]
    assert [id(g) for g in formulas.subformulas(f)] == [id(g) for g in ref.subformulas(f)]
    assert repr(f) == ref.show(f)
    same(render, ref.render, f)
    same(formulas.metrics, ref.metrics, f)
    same(formulas.negate, ref.negate, f)
    same(formulas.simplify_constants, ref.simplify_constants, f)
    same(formulas.substitute, ref.substitute, f, mapping)
    same(formulas.canonical_bound_names, ref.canonical_bound_names, f)
    same(formulas.uniquify_bound, ref.uniquify_bound, f)
    same(formulas.dedupe_or_idempotent, dedupe_every_or_chain, f)
    same(formulas.foneq_to_fo, ref.foneq_to_fo, f)
    same(formulas.flatten_sigma1, ref.flatten_sigma1, f)
    for n in (1, 2, 3):
        same(is_trivial_at, ref.is_trivial_at, f, n)
    if small(f, 40):
        same(formulas.fo_to_foneq, ref.fo_to_foneq, f)
    if small(f, 15):
        same(formulas.psi_n, ref.psi_n, f, 2)
        same(formulas.existential_prenex_dnf, ref.existential_prenex_dnf, f)
    for kind in (Forall, Or, Atom):
        pred = lambda g: isinstance(g, kind)  # noqa: E731
        same(formulas.find_subformula_paths, ref.find_subformula_paths, f, pred)
    paths = ref.find_subformula_paths(f, lambda g: True)
    path = paths[pick % len(paths)]
    same(formulas.substitute_subformula, ref.substitute_subformula, f, path, leaf)


def structure(f):
    """f as nested tuples of its class and fields, built recursively: the
    dataclass rule of equality spelled out."""
    if isinstance(f, (And, Or)):
        return type(f), structure(f.left), structure(f.right)
    if isinstance(f, (Exists, Forall)):
        return type(f), f.var, structure(f.body), f.distinct
    if isinstance(f, Atom):
        return Atom, f.rel, f.args, f.positive
    return (Eq, f.left, f.right, f.positive) if isinstance(f, Eq) else (type(f),)


def replaced(f, path, leaf):
    """f with the node at path (child indices) replaced by leaf."""
    if not path:
        return leaf
    if isinstance(f, (And, Or)):
        left, right = f.left, f.right
        if path[0] == 0:
            return type(f)(replaced(left, path[1:], leaf), right)
        return type(f)(left, replaced(right, path[1:], leaf))
    return type(f)(f.var, replaced(f.body, path[1:], leaf), f.distinct)


@settings(max_examples=400, deadline=None)
@given(cases())
def test_equality_and_hash_agree_with_structural_comparison(case):
    """== and hash on an unshared copy of f, and on f with one leaf replaced,
    against the recursive comparison of their structures."""
    f, _, leaf, pick = case
    leaf_paths = ref.find_subformula_paths(f, lambda g: not formulas.children(g))
    for g in (unshared(f), replaced(f, leaf_paths[pick % len(leaf_paths)], leaf)):
        equal = structure(f) == structure(g)
        assert (f == g) is (g == f) is equal and (f != g) is not equal
        assert (g in {f: 0}) is equal
        if equal:
            assert hash(f) == hash(g)
    assert f != structure(f) and f != None  # noqa: E711


@contextlib.contextmanager
def counted(sr):
    """Count the add and mul calls made on sr while the block runs."""
    calls = Counter()

    def counting(name, op):
        def call(a, b):
            calls[name] += 1
            return op(a, b)
        return call

    sr.add, sr.mul = counting("add", sr.add), counting("mul", sr.mul)
    try:
        yield calls
    finally:
        del sr.add, sr.mul


def unshared(f):
    """A copy of f in which no inner node object occurs twice."""
    if isinstance(f, (And, Or)):
        return type(f)(unshared(f.left), unshared(f.right))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, unshared(f.body), f.distinct)
    return f


@st.composite
def valuation_cases(draw):
    f = draw(shared_formulas(draw(st.booleans())))
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=2)):
        f = draw(st.sampled_from((Exists, Forall)))(name, f, draw(st.booleans()))
    sr, values = CARRIERS[draw(st.sampled_from(sorted(CARRIERS)))]
    universe = tuple(range(1, draw(st.integers(0, 3)) + 1))
    pair = st.tuples(st.sampled_from(values), st.sampled_from(values))
    table = {key: draw(pair) for key in VOCAB.atoms(universe) if draw(st.booleans())}
    env = {name: draw(st.sampled_from((1, 1, 2, 3, 4))) for name in NAMES if draw(st.booleans())}
    return f, Interpretation(sr, universe, VOCAB, table, draw(pair)), env


@settings(max_examples=400, deadline=None)
@given(valuation_cases())
def test_kernel_matches_reference_in_values_and_semiring_calls(case):
    """The spine loop of `run_plan` checks and fills the memos as the
    recursive walk did, so it makes the same add and mul calls as the frozen
    evaluator, which memoizes every subformula (on an unshared copy: the
    evaluator also shares memo entries among the occurrences of one object)."""
    f, interp, env = case
    with counted(interp.semiring) as calls:
        got = _outcome(lambda: run_plan(compile_formula(f), interp, dict(env)))
        new_calls = dict(calls)
    with counted(interp.semiring) as calls:
        want = _outcome(reference_evaluator.evaluate, interp, unshared(f), dict(env))
        old_calls = dict(calls)
    assert got == want
    if got[0] == "value":
        assert new_calls == old_calls


def test_walks_return_on_a_disjunction_wider_than_the_recursion_limit():
    f = Exists("x", make_or([Atom("R", ("x",))] * 5000))
    fd = Exists("x", f.body, True)
    interp = Interpretation.from_atoms(VITERBI, (1, 2), VOCAB, {("R", (2,)): Fraction(1, 3)})
    assert formulas.free_vars(f) == frozenset()
    assert formulas.metrics(f).size == 10000
    assert repr(f) == "E x. " + "(" * 4999 + "R(x)" + " | R(x))" * 4999
    assert render(f) == "E x. " + " | ".join(["R(x)"] * 5000)
    assert repr(formulas.negate(f)) == "A x. " + "(" * 4999 + "~R(x)" + " & ~R(x))" * 4999
    assert formulas.simplify_constants(f).body.right == Atom("R", ("x",))
    assert formulas.substitute(f.body, {"x": "y"}).right == Atom("R", ("y",))
    assert formulas.canonical_bound_names(f).var == "v1"
    assert formulas.fo_to_foneq(f).distinct
    assert formulas.dedupe_or_idempotent(f.body) == Atom("R", ("x",))
    assert evaluate(interp, f) == Fraction(1, 3)
    assert compile_formula(f).memos == 0
    assert is_trivial_at(fd, 3) is False


def test_equality_and_hash_on_a_disjunction_wider_than_the_recursion_limit():
    f, g = (Exists("x", make_or([Atom("R", ("x",))] * 5000)) for _ in range(2))
    h = Exists("x", make_or([Atom("R", ("x",))] * 4999 + [Atom("R", ("y",))]))
    assert f is not g and f == g and hash(f) == hash(g)
    assert {f: "f"}[g] == "f" and g in {f} and h not in {f: "f"}
    assert f != h and h.free == ("y",) and f.free == ()


def nested_quantifiers(depth: int, last: str):
    """E x0. (R(x0) & E x1. (R(x1) & ... E(x{depth-1}, last))), hand-built."""
    f = Atom("E", (f"x{depth - 1}", last))
    for i in reversed(range(depth)):
        f = Exists(f"x{i}", And(Atom("R", (f"x{i}",)), f))
    return f


def innermost(f):
    """The last leaf of f, reached through quantifier bodies and right operands."""
    while isinstance(f, (And, Or, Exists, Forall)):
        f = f.right if isinstance(f, (And, Or)) else f.body
    return f


def test_walks_return_on_quantifiers_nested_as_deep_as_the_parser_reads():
    """400 nested quantifiers, each over a conjunction: the walks that carry
    an environment across binders (and evaluation) return."""
    f, s = nested_quantifiers(400, "y"), nested_quantifiers(400, "x399")
    atoms = {("R", (1,)): Fraction(1, 2), ("E", (1, 1)): Fraction(1, 3)}
    interp = Interpretation.from_atoms(VITERBI, (1,), VOCAB, atoms)
    assert evaluate(interp, f, {"y": 1}) == Fraction(1, 2) ** 400 / 3
    assert compile_formula(f).free == ("y",)
    renamed = formulas.substitute(f, {"y": "x0"})
    assert renamed.var == "x0_1" and renamed.body.left == Atom("R", ("x0_1",))
    assert innermost(renamed) == Atom("E", ("x399", "x0"))
    assert innermost(formulas.canonical_bound_names(f)) == Atom("E", ("v400", "y"))
    assert innermost(formulas.uniquify_bound(f)) == Atom("E", ("w400", "y"))
    foneq = formulas.fo_to_foneq(s)
    assert foneq.distinct and innermost(foneq) == innermost(s)
    assert innermost(formulas.foneq_to_fo(foneq)) == innermost(s)
    assert is_trivial_at(foneq, 2) is False
    flat = formulas.flatten_sigma1(s)
    for i in range(400):
        assert flat.var == f"x{i}"
        flat = flat.body
    assert flat.left == Atom("R", ("x0",)) and innermost(flat) == innermost(s)
    assert formulas.free_vars(f) == {"y"}
    assert render(f).startswith("E x0. R(x0) & (E x1. R(x1) & (E x2.")
    assert innermost(formulas.negate(f)) == Atom("E", ("x399", "y"), False)
    assert innermost(formulas.simplify_constants(f)) == innermost(f)
    assert len(formulas.find_subformula_paths(f, lambda g: isinstance(g, Atom))) == 401


def test_folds_do_not_recurse_at_binders():
    """Nesting deeper than the recursion limit: a fold carries the binder
    environment on its own stack."""
    f, s = nested_quantifiers(1200, "y"), nested_quantifiers(1200, "x1199")
    atoms = {("R", (1,)): Fraction(1, 2), ("E", (1, 1)): Fraction(1, 3)}
    interp = Interpretation.from_atoms(VITERBI, (1,), VOCAB, atoms)
    assert evaluate(interp, f, {"y": 1}) == Fraction(1, 2) ** 1200 / 3
    assert parse(render(f)) == f
    assert formulas.free_vars(f) == {"y"}
    assert formulas.metrics(f) == formulas.FormulaMetrics(3601, 1200, 0)
    assert repr(f).startswith("E x0. (R(x0) & E x1. (R(x1) & E x2.")
    assert render(f).endswith("E x1199. R(x1199) & E(x1199, y)" + ")" * 1199)
    assert innermost(formulas.negate(f)) == Atom("E", ("x1199", "y"), False)
    assert innermost(formulas.simplify_constants(f)) == innermost(f)
    assert innermost(formulas.canonical_bound_names(f)) == Atom("E", ("v1200", "y"))
    assert innermost(formulas.uniquify_bound(f)) == Atom("E", ("w1200", "y"))
    assert innermost(formulas.flatten_sigma1(s)) == innermost(s)
    assert innermost(formulas.psi_n(s, 1)) == Atom("E", ("u1", "u1"))
    assert compile_formula(f).free == ("y",)
    assert len(formulas.find_subformula_paths(f, lambda g: isinstance(g, Atom))) == 1201


def seconds(fn, *args):
    """The best of three wall times of fn(*args)."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        runs.append(time.perf_counter() - start)
    return min(runs)


def test_substitution_and_translation_read_free_variables_off_the_nodes():
    """On E x1. ... E x1200. R(x1200[, y]), substitute and fo_to_foneq take
    about as long as negate, which rebuilds every node once.  When they
    recomputed each quantifier's free variables (quadratic in the depth) they
    took about 1 s each (Python 3.11, a 2-core Xeon), over 200 times as long as
    negate."""
    def chain(*last):
        f = Atom("R", ("x1200", *last))
        for i in reversed(range(1, 1201)):
            f = Exists(f"x{i}", f)
        return f

    open_chain, sentence = chain("y"), chain()
    linear = seconds(formulas.negate, open_chain)
    assert innermost(formulas.substitute(open_chain, {"y": "z"})) == Atom("R", ("x1200", "z"))
    assert seconds(formulas.substitute, open_chain, {"y": "z"}) < 10 * linear
    assert formulas.fo_to_foneq(sentence).distinct
    assert seconds(formulas.fo_to_foneq, sentence) < 10 * linear


def test_compile_formula_is_linear_in_quantifier_depth():
    """On E x0. ... E x9999. R(x0) & R(x9999), compiling takes about as long
    as negate.  When every binder copied the whole binder scope (quadratic in
    the depth) it took over 20 times as long (Python 3.11, a 2-core Xeon)."""
    n = 10000
    f = And(Atom("R", ("x0",)), Atom("R", (f"x{n - 1}",)))
    for i in reversed(range(n)):
        f = Exists(f"x{i}", f)
    assert seconds(compile_formula, f) < 10 * seconds(formulas.negate, f)
    half = Fraction(1, 2)
    interp = Interpretation(VITERBI, (1,), VOCAB, {("R", (1,)): (half, half)}, (half, half))
    assert run_plan(compile_formula(f), interp) == Fraction(1, 4)
