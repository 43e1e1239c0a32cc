"""The compiled valuation kernel: a differential test against the frozen
tree-walking evaluator (reference_evaluator.py), plan reuse across
interpretations, and wide input."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_evaluator import evaluate as reference_evaluate
from semlog.errors import PreconditionError
from semlog.evaluation import compile_formula, evaluate, run_plan
from semlog.formulas import FALSE, TRUE, And, Atom, Eq, Exists, Forall, Or, make_or
from semlog.interpretations import (
    Interpretation,
    Vocabulary,
    enumerate_interpretations,
    random_interpretation,
)
from semlog.lattices import LatticeSemiring, diamond_lattice
from semlog.parser import parse
from semlog.provenance import pi_n
from semlog.semirings import BOOLEAN, DOUBT, INF, LUKASIEWICZ, S3, TROPICAL, VITERBI

VOCAB = Vocabulary({"R": 1, "E": 2})
NAMES = ("x", "y", "z")  # few names, so binders shadow each other and free variables
# Terms and environment values: mostly variables and small elements; 0, 4
# and 5 lie outside every universe drawn here.
TERMS = NAMES * 4 + (1, 1, 2, 5)
ELEMENTS = (1, 1, 1, 2, 2, 3, 0, 4)
LATTICE = LatticeSemiring(diamond_lattice(), "diamond")
CARRIERS = {
    "boolean": (BOOLEAN, [False, True]),
    "s3": (S3, [0, 1, 2]),
    "viterbi": (VITERBI, [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    "tropical": (TROPICAL, [INF, Fraction(0), Fraction(1, 2), Fraction(3)]),
    "lukasiewicz": (LUKASIEWICZ, [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]),
    "doubt": (DOUBT, [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]),
    "lattice": (LATTICE, LATTICE.carrier()),
}


@st.composite
def formulas(draw, distinct: bool, depth: int = 3):
    """An FO (plain quantifiers, equality atoms) or FO-distinct formula over
    NAMES and CONSTANTS; names left unbound are free."""
    term = st.sampled_from(TERMS)
    kinds = ["atom", "atom", "const"] + (["eq"] if not distinct else [])
    if depth > 0:
        kinds += ["and", "or", "exists", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(st.sampled_from((TRUE, FALSE)))
    if kind == "atom":
        rel, arity = draw(st.sampled_from(VOCAB.relations))
        args = tuple(draw(term) for _ in range(arity))
        return Atom(rel, args, draw(st.booleans()))
    if kind == "eq":
        return Eq(draw(term), draw(term), draw(st.booleans()))
    if kind in ("and", "or"):
        left = draw(formulas(distinct, depth - 1))
        right = draw(formulas(distinct, depth - 1))
        return And(left, right) if kind == "and" else Or(left, right)
    body = draw(formulas(distinct, depth - 1))
    cls = Exists if kind == "exists" else Forall
    return cls(draw(st.sampled_from(NAMES)), body, distinct)


@st.composite
def interpretations(draw):
    """An interpretation of VOCAB over one of the carriers, or pi_n in either
    polynomial flavour; literal pairs need not be model-defining."""
    carrier = draw(st.sampled_from(sorted(CARRIERS) + ["pi_absorptive", "pi_nat"]))
    if carrier.startswith("pi_"):
        n = draw(st.integers(1, 3))
        return pi_n(VOCAB, n, "absorptive" if carrier == "pi_absorptive" else "nat")
    sr, values = CARRIERS[carrier]
    universe = tuple(range(1, draw(st.sampled_from((2, 3, 1, 2, 3, 0))) + 1))
    pair = st.tuples(st.sampled_from(values), st.sampled_from(values))
    table = {key: draw(pair) for key in VOCAB.atoms(universe) if draw(st.booleans())}
    return Interpretation(sr, universe, VOCAB, table, draw(pair))


@st.composite
def cases(draw):
    interp = draw(interpretations())
    distinct = draw(st.booleans())
    f = draw(formulas(distinct))
    # A quantifier prefix, but not over polynomials: their size grows
    # exponentially with the quantifier nesting.
    prefix = 0 if interp.semiring.id in ("spoly", "natpoly") else 3
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=prefix)):
        f = draw(st.sampled_from((Exists, Forall)))(name, f, distinct)
    unbound = draw(st.sampled_from((None,) * 6 + NAMES))
    env = {name: draw(st.sampled_from(ELEMENTS)) for name in NAMES + ("extra",)
           if name != unbound}
    return f, interp, env


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception type is part of the behaviour compared
        return "raised", type(exc)


def check_case(case):
    f, interp, env = case
    expected = _outcome(reference_evaluate, interp, f, dict(env))
    assert _outcome(evaluate, interp, f, dict(env)) == expected
    assert _outcome(lambda: run_plan(compile_formula(f), interp, env)) == expected


@settings(max_examples=400, deadline=None)
@given(cases())
def test_kernel_agrees_with_reference_evaluator(case):
    check_case(case)


@pytest.mark.parametrize("text", [
    "E x. (R(x) | A! y. E(x, y))",
    "E x. A y. E z. ((E(x, y) | E(y, x)) & R(z))",  # memo keyed on two of three levels
    "A! x. E! y. E! z. (E(x, z) | E(y, z))",  # a range that skips two elements
    "E x. (R(x) & A y. E z. E(z, z))",  # a sentence memoized under a binder
    "A x. E x. (R(x) | E x. E(x, x))",  # shadowed binders
])
def test_plan_reused_across_interpretations(text):
    f = parse(text)
    plan = compile_formula(f)
    grid = [Fraction(1, 2), Fraction(1)]
    interps = [*enumerate_interpretations(VITERBI, VOCAB, 1, grid),
               *enumerate_interpretations(VITERBI, VOCAB, 2, grid)]
    rng = random.Random(0)
    interps += [random_interpretation(VITERBI, VOCAB, 3, grid, rng) for _ in range(200)]
    for interp in interps:
        assert run_plan(plan, interp) == reference_evaluate(interp, f)


def test_plan_with_free_variables_and_constants():
    f = And(Atom("E", ("x", 2)), Exists("y", Eq("x", "y", False), True))
    plan = compile_formula(f)
    interp = Interpretation.from_atoms(S3, (1, 2, 3), VOCAB, {("E", (1, 2)): 1})
    assert run_plan(plan, interp, {"x": 1, "unused": 7}) == 1
    assert run_plan(plan, interp, {"x": 2}) == 0
    with pytest.raises(PreconditionError, match="uninstantiated"):
        run_plan(plan, interp, {})
    with pytest.raises(PreconditionError, match="not in universe"):
        run_plan(plan, interp, {"x": 9})
    small = interp.restrict((1,))
    with pytest.raises(PreconditionError, match="element 2 not in universe"):
        run_plan(plan, small, {"x": 1})


def test_wide_disjunction_under_a_quantifier():
    interp = Interpretation.from_atoms(VITERBI, (1, 2), VOCAB, {("R", (2,)): Fraction(1, 3)})
    deep_quantifiers = Atom("R", ("x4999",))
    for i in reversed(range(5000)):
        deep_quantifiers = Exists(f"x{i}", deep_quantifiers)
    deep_or = Atom("R", ("x",))
    for _ in range(2999):
        deep_or = Or(Atom("R", ("x",)), deep_or)
    inputs = [Exists("x", make_or([Atom("R", ("x",))] * width)) for width in (450, 5000)]
    for f in inputs + [deep_quantifiers, Exists("x", deep_or)]:
        assert evaluate(interp, f) == Fraction(1, 3)
