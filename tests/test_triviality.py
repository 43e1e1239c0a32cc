"""Triviality by symmetry: a differential test of the structural walk in
`semlog.preservation` against the frozen evaluation-based copy
(reference_triviality.py), on random FO-distinct formulas with `true`/`false`
leaves and on hand-built atoms with integer constants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_triviality as reference
from corpus import MIXED, UNARY_RQ, random_foneq_formula
from semlog.formulas import FALSE, TRUE, And, Atom, Exists, Forall, Or, free_vars, qr
from semlog.preservation import is_eventually_trivial, is_trivial_at

FREE = ((), ("x",), ("x", "y"))
# 0 and 9 lie outside every universe probed here, 5 outside the small ones.
CONSTANTS = (0, 1, 2, 3, 5, 9)
NAMES = ("x", "y", "z")


def _with_constants(f, rng: random.Random):
    """f with about a quarter of its atom arguments replaced by constants."""
    kind = type(f)
    if kind is Atom:
        args = tuple(rng.choice(CONSTANTS) if rng.random() < 0.25 else t for t in f.args)
        return Atom(f.rel, args, f.positive)
    if kind is And or kind is Or:
        return kind(_with_constants(f.left, rng), _with_constants(f.right, rng))
    if kind is Exists or kind is Forall:
        return kind(f.var, _with_constants(f.body, rng), f.distinct)
    return f


@st.composite
def hand_built(draw, depth: int = 3):
    """An FO-distinct formula over NAMES and CONSTANTS, so binders shadow each
    other, quantify vacuously and leave names free."""
    kinds = ["atom", "atom", "const"] + (["and", "or", "exists", "forall"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return draw(st.sampled_from((TRUE, FALSE)))
    if kind == "atom":
        rel, arity = draw(st.sampled_from(MIXED.relations))
        args = tuple(draw(st.sampled_from(NAMES + CONSTANTS)) for _ in range(arity))
        return Atom(rel, args, draw(st.booleans()))
    if kind in ("and", "or"):
        left, right = draw(hand_built(depth - 1)), draw(hand_built(depth - 1))
        return And(left, right) if kind == "and" else Or(left, right)
    cls = Exists if kind == "exists" else Forall
    return cls(draw(st.sampled_from(NAMES)), draw(hand_built(depth - 1)), True)


@st.composite
def cases(draw):
    """Corpus formulas with 0-2 free variables and qr <= 3, with or without
    constants in their atoms, and hand-built formulas."""
    source = draw(st.sampled_from(("corpus", "corpus", "constants", "hand")))
    if source == "hand":
        return draw(hand_built())
    rng = random.Random(draw(st.integers(0, 2**32)))
    vocab = rng.choice((UNARY_RQ, MIXED))
    free = rng.choice(FREE)
    f = random_foneq_formula(rng, vocab, rng.randint(0 if free else 1, 3), free, constants=True)
    return _with_constants(f, rng) if source == "constants" else f


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is part of the behaviour compared
        return "raised", type(exc), str(exc)


def _verdict(outcome):
    return ("value", outcome[1].verdict) if outcome[0] == "value" else outcome


@settings(max_examples=500, deadline=None)
@given(cases())
def test_walk_agrees_with_the_evaluation_reference(f):
    lo = len(free_vars(f)) + 1
    r = qr(f)
    for n in range(lo - 2, lo + r + 5):
        assert _outcome(is_trivial_at, f, n) == _outcome(reference.is_trivial_at, f, n), (f, n)
    new = _outcome(is_eventually_trivial, f)
    old = _outcome(lambda: reference.is_eventually_trivial(f, reference.default_probe_range(f, 40)))
    assert _verdict(new) == _verdict(old), f
    if new[0] == "value":
        v = new[1]
        assert v.threshold == lo + r
        assert v.probes == tuple((n, reference.is_trivial_at(f, n)) for n in range(lo, lo + r + 1))
        assert is_trivial_at(f, 10**9) == (v.verdict == "trivial"), f
