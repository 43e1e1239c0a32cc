"""Shared formula and interpretation generators for the test suite."""

from __future__ import annotations

import random

from semlog.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Or,
    free_vars,
)
from semlog.interpretations import Interpretation, Vocabulary, random_interpretation

UNARY_R = Vocabulary({"R": 1})
UNARY_RQ = Vocabulary({"R": 1, "Q": 1})
BINARY_E = Vocabulary({"E": 2})
MIXED = Vocabulary({"R": 1, "E": 2})


def _rel_atom(rng: random.Random, vocab: Vocabulary, scope, positive=None):
    rel, arity = vocab.relations[rng.randrange(len(vocab.relations))]
    args = tuple(rng.choice(scope) for _ in range(arity))
    if positive is None:
        positive = rng.random() < 0.8
    return Atom(rel, args, positive)


def random_foneq_formula(rng: random.Random, vocab: Vocabulary = UNARY_RQ, max_qr: int = 2,
                         free=(), constants: bool = False):
    """A random FO-distinct formula with quantifier rank <= max_qr whose free
    variables are exactly `free`; with `constants`, a third of the leaves
    are `true` or `false` instead of atoms."""

    def build(scope, quantifiers_left, budget):
        can_atom = bool(scope)
        moves = []
        if can_atom:
            moves += ["atom", "atom"]
        if quantifiers_left > 0:
            moves += ["exists", "forall", "exists"]
        if budget > 0 and can_atom:
            moves += ["and", "or"]
        if budget > 0 and quantifiers_left > 0:
            moves += ["and", "or"]
        if not moves:
            return TRUE
        move = rng.choice(moves)
        if move == "atom":
            if constants and rng.random() < 1 / 3:
                return rng.choice((TRUE, FALSE))
            return _rel_atom(rng, vocab, scope)
        if move in ("exists", "forall"):
            var = f"q{len(scope) + 1}"
            body = build(scope + [var], quantifiers_left - 1, budget)
            cls = Exists if move == "exists" else Forall
            return cls(var, body, distinct=True)
        l = build(scope, quantifiers_left, budget - 1)
        r = build(scope, quantifiers_left, budget - 1)
        return And(l, r) if move == "and" else Or(l, r)

    for _ in range(200):
        f = build(list(free), max_qr, 2)
        if free_vars(f) == set(free) and not isinstance(f, (type(TRUE), type(FALSE))):
            return f
    raise AssertionError("generator failed to produce a formula")


def random_foneq_sentence(rng: random.Random, vocab: Vocabulary = UNARY_RQ, max_qr: int = 2):
    """A random FO-distinct sentence with quantifier rank <= max_qr."""
    return random_foneq_formula(rng, vocab, max_qr)


def random_sigma1_sentence(rng: random.Random, vocab: Vocabulary = UNARY_RQ, k: int = 2,
                           positive_only: bool = False, with_equalities: bool = True):
    """Existential-prefix sentence with a quantifier-free matrix."""
    scope = [f"x{i}" for i in range(1, k + 1)]

    def matrix(budget):
        if budget == 0 or rng.random() < 0.4:
            if with_equalities and not positive_only and rng.random() < 0.2:
                return Eq(rng.choice(scope), rng.choice(scope), positive=rng.random() < 0.5)
            return _rel_atom(rng, vocab, scope, positive=True if positive_only else None)
        l = matrix(budget - 1)
        r = matrix(budget - 1)
        return And(l, r) if rng.random() < 0.5 else Or(l, r)

    f = matrix(2)
    for v in reversed(scope):
        f = Exists(v, f)
    return f


def random_pi1_sentence(rng: random.Random, vocab: Vocabulary = UNARY_RQ, k: int = 2):
    scope = [f"x{i}" for i in range(1, k + 1)]

    def matrix(budget):
        if budget == 0 or rng.random() < 0.4:
            if rng.random() < 0.2:
                return Eq(rng.choice(scope), rng.choice(scope), positive=rng.random() < 0.5)
            return _rel_atom(rng, vocab, scope)
        l = matrix(budget - 1)
        r = matrix(budget - 1)
        return And(l, r) if rng.random() < 0.5 else Or(l, r)

    f = matrix(2)
    for v in reversed(scope):
        f = Forall(v, f)
    return f


def random_extension_pair(rng: random.Random, semiring, vocab, value_set,
                          small: int = 1, big: int = 3):
    """A random model-defining interpretation and an induced subinterpretation."""
    b_size = rng.randrange(small + 1, big + 1)
    pb = random_interpretation(semiring, vocab, b_size, value_set, rng)
    a_size = rng.randrange(small, b_size)
    subset = rng.sample(list(pb.universe), a_size)
    return pb.restrict(subset), pb


def random_hom_pair(rng: random.Random, semiring, vocab, value_set,
                    a_size: int = 2, b_size: int = 2):
    """A pair (pa, pb) with a homomorphism g constructed to satisfy the
    preimage-sum condition with equality on positive atoms."""
    pa = random_interpretation(semiring, vocab, a_size, value_set, rng)
    universe_b = tuple(range(1, b_size + 1))
    g = {a: rng.choice(universe_b) for a in pa.universe}
    table = {}
    for rel, args in vocab.atoms(universe_b):
        preimages = [
            other
            for rel2, other in pa.atom_keys()
            if rel2 == rel and tuple(g[x] for x in other) == args
        ]
        total = semiring.sum(pa.literal(rel, other) for other in preimages)
        if total == semiring.zero:
            choice = rng.choice(list(value_set) + [semiring.zero])
            table[(rel, args)] = (
                (semiring.zero, semiring.one) if choice == semiring.zero else (choice, semiring.zero)
            )
        else:
            table[(rel, args)] = (total, semiring.zero)
    pb = Interpretation(semiring, universe_b, vocab, table)
    return pa, pb, g
