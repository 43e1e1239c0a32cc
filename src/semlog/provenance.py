"""The canonical polynomial interpretations pi_n and their specializations.

pi_n annotates every literal over universe {1..n} with its own variable; in
the absorptive flavor the negative literal gets the dual variable (the
quotient kills products of dual pairs), in the N[X] flavor the same dual
pairing is used without a quotient and specializations choose which side to
zero out.
"""

from __future__ import annotations

from typing import Dict

from .errors import PreconditionError
from .interpretations import Interpretation, Vocabulary
from .polynomials import NATPOLY, SPOLY, lit_var, specialize
from .semirings import Semiring, SemiringHom


def pi_n(vocab: Vocabulary, n: int, flavor: str = "absorptive") -> Interpretation:
    """The interpretation over {1..n} mapping each literal to its own variable."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    universe = tuple(range(1, n + 1))
    sr = {"absorptive": SPOLY, "nat": NATPOLY}.get(flavor)
    if sr is None:
        raise PreconditionError(f"unknown flavor {flavor!r}")
    var = type(sr.zero).var
    table = {}
    for rel, args in vocab.atoms(universe):
        table[(rel, args)] = (
            var(lit_var(rel, args, True)),
            var(lit_var(rel, args, False)),
        )
    return Interpretation(sr, universe, vocab, table, default=(sr.zero, sr.zero))


def assignment_from_interpretation(interp: Interpretation) -> Dict:
    """The variable assignment matching a concrete interpretation:
    x_alpha -> pi(alpha), x_{~alpha} -> pi(~alpha)."""
    out = {}
    for rel, args in interp.atom_keys():
        pos, neg = interp.pair(rel, args)
        out[lit_var(rel, args, True)] = pos
        out[lit_var(rel, args, False)] = neg
    return out


def specialization_hom(
    assignment: Dict, source: Semiring, target: Semiring, name: str = "h_f"
) -> SemiringHom:
    """The universal-property homomorphism induced by a consistent assignment."""
    return SemiringHom(source, target, lambda p: specialize(p, assignment, target), name)
