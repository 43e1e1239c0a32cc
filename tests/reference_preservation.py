"""A frozen copy of the extension and subinterpretation branch of
`semlog.preservation.check_preservation` as it was before size pairs were
certified on pi_n, kept as the oracle of the differential test in
test_preservation_reference.py: it enumerates every size-b interpretation
against every smaller subset.  Do not optimize it: its value is that it is
the old semantics, line for line."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from semlog.evaluation import compile_formula, run_plan
from semlog.formulas import Formula
from semlog.interpretations import Interpretation, Vocabulary, enumerate_interpretations
from semlog.preservation import VITERBI_GRID, PreservationVerdict
from semlog.semirings import Semiring


def _violates(sr: Semiring, prop: str, va, vb) -> bool:
    if prop == "extensions":
        return not sr.leq(va, vb)
    if prop == "subinterpretations":
        return not sr.leq(vb, va)
    raise ValueError(f"unknown property {prop!r}")


def _lower_pairs(sr: Semiring, value_set):
    ordered = sorted(value_set, key=lambda v: sum(sr.leq(v, w) for w in value_set), reverse=True)
    pairs = [(sr.zero, sr.one)]
    pairs.extend((v, sr.zero) for v in ordered)
    return pairs


def _minimize_extension_witness(plan, sr, prop, pa, pb, value_set):
    keep = set(pa.universe)
    current = pb
    changed = True
    while changed:
        changed = False
        for e in sorted(set(current.universe) - keep):
            if len(current.universe) <= len(keep) + 1:
                break
            cand = current.restrict(set(current.universe) - {e})
            ca = cand.restrict(keep)
            if _violates(sr, prop, run_plan(plan, ca), run_plan(plan, cand)):
                current = cand
                changed = True
                break
    for key in sorted(current.table):
        for pair in _lower_pairs(sr, value_set):
            if current.table[key] == pair:
                break
            table = dict(current.table)
            table[key] = pair
            cand = Interpretation(sr, current.universe, current.vocab, table, current.default)
            ca = cand.restrict(keep)
            if _violates(sr, prop, run_plan(plan, ca), run_plan(plan, cand)):
                current = cand
                break
    return current.restrict(keep), current


def check_preservation(
    formula: Formula,
    semiring: Semiring,
    prop: str,
    max_size: int = 2,
    value_set: Sequence = VITERBI_GRID,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
    minimize: bool = True,
) -> PreservationVerdict:
    vocab = vocab or Vocabulary.of_formula(formula)
    space = f"sizes<= {max_size}, grid {[semiring.format_value(v) for v in value_set]}"
    plan = compile_formula(formula)
    for b_size in range(2, max_size + 1):
        for pb in enumerate_interpretations(semiring, vocab, b_size, value_set, guard):
            vb = run_plan(plan, pb)
            for a_size in range(1, b_size):
                for subset in itertools.combinations(pb.universe, a_size):
                    pa = pb.restrict(subset)
                    va = run_plan(plan, pa)
                    if _violates(semiring, prop, va, vb):
                        if minimize:
                            pa, pb2 = _minimize_extension_witness(
                                plan, semiring, prop, pa, pb, value_set
                            )
                        else:
                            pb2 = pb
                        va = run_plan(plan, pa)
                        vb2 = run_plan(plan, pb2)
                        return PreservationVerdict(
                            prop, "refuted", (pa, pb2, None), space, (va, vb2)
                        )
    return PreservationVerdict(prop, "holds_on_search_space", None, space)
