"""A frozen copy of the bounded searches that `semlog.preservation` now runs
on one private driver, `_valued`, kept as the oracle of the differential
test in test_search_reference.py: `verify_equivalent`, `s3_entailment`,
`entails_at` (then in `semlog.evaluation`) and the homomorphism branch of
`check_preservation`, here `check_homomorphisms`.  Each wrote its own grid
check, size loop, guard, plan valuation and `checked` count.  The library's
own helpers (`_pi_n_valuer`, enumeration, sampling) are called as they are
today; `_value_of_set` is the set valuation `semlog.evaluation` then had.
Do not optimize it: its value is that it is the old semantics, line for
line."""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from semlog.errors import GuardExceeded
from semlog.evaluation import compile_formula, run_plan
from semlog.formulas import Formula
from semlog.interpretations import (
    Vocabulary,
    _atom_choices,
    check_interp_hom,
    enumerate_interpretations,
    random_interpretation,
)
from semlog.preservation import (
    S3_VALUES,
    VITERBI_GRID,
    EntailmentVerdict,
    PreservationVerdict,
    S3Verdict,
    VerificationResult,
    _pi_n_valuer,
)
from semlog.semirings import S3, Semiring


def _value_of_set(plans, interp):
    """Product of the values of compiled sentences; the empty set gives one."""
    return interp.semiring.prod(run_plan(p, interp) for p in plans)


def check_homomorphisms(
    formula: Formula,
    semiring: Semiring,
    max_size: int = 2,
    value_set: Sequence = VITERBI_GRID,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> PreservationVerdict:
    prop = "homomorphisms"
    _atom_choices(semiring, value_set)
    vocab = vocab or Vocabulary.of_formula(formula)
    space = f"sizes<= {max_size}, grid {[semiring.format_value(v) for v in value_set]}"
    plan = compile_formula(formula)
    valued = {}  # size -> [(interp, value)], filled when the size is first needed

    def of_size(size):
        if size not in valued:
            interps = enumerate_interpretations(semiring, vocab, size, value_set, guard)
            valued[size] = [(p, run_plan(plan, p)) for p in interps]
        return valued[size]

    for a_size in range(1, max_size + 1):
        pas = of_size(a_size)
        for b_size in range(1, max_size + 1):
            for pb, vb in of_size(b_size):
                for pa, va in pas:
                    if semiring.leq(va, vb):
                        continue
                    if b_size ** a_size > guard:
                        raise GuardExceeded(f"{b_size}^{a_size} maps exceed the guard {guard}")
                    for images in itertools.product(pb.universe, repeat=a_size):
                        g = dict(zip(pa.universe, images))
                        if check_interp_hom(g, pa, pb) == "none":
                            continue
                        return PreservationVerdict(
                            prop, "refuted", (pa, pb, g), space, (va, vb)
                        )
    return PreservationVerdict(prop, "holds_on_search_space", None, space)


def verify_equivalent(
    f: Formula,
    g: Formula,
    semiring: Semiring,
    vocab: Vocabulary,
    value_set: Sequence,
    exhaustive_sizes: Sequence[int] = (1, 2, 3),
    samples: int = 1000,
    max_sample_size: int = 5,
    seed: int = 0,
    guard: int = 10**6,
) -> VerificationResult:
    _atom_choices(semiring, value_set)
    f_plan, g_plan = compile_formula(f), compile_formula(g)
    pi = _pi_n_valuer(semiring, vocab, (f, g), (f_plan, g_plan))
    equal_at = {}
    enumerated, sampled = [], set()
    checked = 0

    def certified(n):
        if n not in equal_at:
            equal_at[n] = pi is not None and pi(n)[0] == pi(n)[1]
        return equal_at[n]

    def differ(interp):
        nonlocal checked
        checked += 1
        return run_plan(f_plan, interp) != run_plan(g_plan, interp)

    def result(witness):
        sizes = tuple(sorted(n for n, ok in equal_at.items() if ok))
        desc = (
            f"over {semiring.id}: certified by pi_n at sizes {sizes}; enumerated sizes "
            f"{tuple(enumerated)}; sampled sizes {tuple(sorted(sampled))}; "
            f"interpretations checked: {checked}"
        )
        return VerificationResult(witness is None, witness, checked, desc, sizes)

    for n in exhaustive_sizes:
        if certified(n):
            continue
        enumerated.append(n)
        for interp in enumerate_interpretations(semiring, vocab, n, value_set, guard):
            if differ(interp):
                return result(interp)
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randrange(1, max_sample_size + 1)
        if certified(n):
            continue
        sampled.add(n)
        interp = random_interpretation(semiring, vocab, n, value_set, rng)
        if differ(interp):
            return result(interp)
    return result(None)


def s3_entailment(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    sizes: Sequence[int] = (1, 2, 3),
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> S3Verdict:
    vocab = vocab or Vocabulary.of_formula(*(list(phi) + list(psi)))
    phi_plans = [compile_formula(f) for f in phi]
    psi_plans = [compile_formula(f) for f in psi]
    checked = 0
    one = S3.one
    for n in sizes:
        for interp in enumerate_interpretations(S3, vocab, n, S3_VALUES, guard):
            checked += 1
            if (_value_of_set(phi_plans, interp) == one
                    and _value_of_set(psi_plans, interp) != one):
                return S3Verdict(False, interp, checked)
    return S3Verdict(True, None, checked)


def entails_at(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    semiring: Semiring,
    sizes: Sequence[int],
    value_set: Sequence,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> EntailmentVerdict:
    if vocab is None:
        vocab = Vocabulary.of_formula(*(list(phi) + list(psi)))
    phi_plans = [compile_formula(f) for f in phi]
    psi_plans = [compile_formula(f) for f in psi]
    checked = 0
    for size in sizes:
        for interp in enumerate_interpretations(semiring, vocab, size, value_set, guard):
            checked += 1
            if not semiring.leq(_value_of_set(phi_plans, interp), _value_of_set(psi_plans, interp)):
                return EntailmentVerdict(False, interp, checked)
    return EntailmentVerdict(True, None, checked)
