"""A frozen copy of the two universal-quantifier elimination pipelines that the
shared driver in `semlog.preservation` replaced, kept as the oracle of the
differential test in test_rewrite_reference.py.  Each pipeline wrote its own
gate, translation and substitution loop, and both handed the combine step to
`_finish_rewrite`; the lattice pipeline passed the fuzzy verification as an
extra check whose result the report kept only when it failed.  The library's
own helpers (gate, triviality, prenex DNF, verification) are called as they
are today.  Do not optimize it: its value is that it is the old driver, line
for line."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from semlog.errors import PreconditionError
from semlog.formulas import (
    FALSE,
    TRUE,
    Eq,
    Exists,
    Forall,
    Formula,
    canonical_bound_names,
    dedupe_or_idempotent,
    existential_prenex_dnf,
    flatten_sigma1,
    fo_to_foneq,
    foneq_to_fo,
    free_vars,
    is_fo,
    is_sentence,
    make_and,
    make_or,
    path_get,
    psi_n,
    simplify_constants,
    subformulas,
    substitute_subformula,
)
from semlog.interpretations import Vocabulary
from semlog.preservation import (
    S3_VALUES,
    STRICT_SEMIRING_IDS,
    VITERBI_GRID,
    PreservationVerdict,
    VerificationResult,
    _innermost_forall_paths,
    check_preservation,
    is_eventually_trivial,
    verify_equivalent,
)
from semlog.semirings import FUZZY, S3, VITERBI, Semiring


@dataclass
class RewriteReport:
    input: Formula
    output: Optional[Formula]
    threshold: int
    substitutions: List[dict] = field(default_factory=list)
    verification: Optional[VerificationResult] = None
    gate: Optional[PreservationVerdict] = None

    @property
    def ok(self) -> bool:
        return self.output is not None and bool(self.verification)

    def summary(self) -> str:
        lines = [f"input:  {self.input!r}"]
        if self.gate is not None and self.gate.refuted:
            pa, pb, _ = self.gate.witness
            lines.append("gate:   preservation refuted")
            lines.append(f"        pa = {pa!r}")
            lines.append(f"        pb = {pb!r}")
            lines.append(f"        values {self.gate.values!r}")
            return "\n".join(lines)
        for sub in self.substitutions:
            lines.append(
                f"subst:  {sub['subformula']!r} -> {sub['verdict']}"
            )
        lines.append(f"threshold n = {self.threshold}")
        if self.output is not None:
            lines.append(f"output: {self.output!r}")
        if self.verification is not None:
            status = "verified" if self.verification.ok else "FAILED"
            lines.append(f"verify: {status} ({self.verification.description})")
        return "\n".join(lines)


def _combine_large_universes(
    original_fo: Formula, core_fo: Formula, n: int
) -> Formula:
    if n == 0:
        return core_fo
    avoid = set(free_vars(core_fo)) | {v for g in subformulas(core_fo) if isinstance(g, (Exists, Forall)) for v in [g.var]}
    xs = []
    i = 0
    while len(xs) < n:
        i += 1
        cand = f"g{i}"
        if cand not in avoid:
            xs.append(cand)
    distinct = [Eq(xs[a], xs[b], positive=False) for a in range(n) for b in range(a + 1, n)]
    guarded = make_and(distinct + [core_fo])
    for x in reversed(xs):
        guarded = Exists(x, guarded)
    parts = [guarded] + [psi_n(original_fo, i) for i in range(1, n + 1)]
    return make_or(parts)


def _finish_rewrite(
    original: Formula,
    core_foneq: Formula,
    semiring: Semiring,
    vocab: Vocabulary,
    value_set: Sequence,
    report: RewriteReport,
    exhaustive_sizes: Sequence[int],
    samples: int,
    max_sample_size: int,
    seed: int,
    combine_max: int,
    extra_checks=(),
) -> RewriteReport:
    core_fo = simplify_constants(foneq_to_fo(core_foneq))
    core_fo = dedupe_or_idempotent(core_fo)
    original_fo = original if is_fo(original) else foneq_to_fo(original)
    last_failure = None
    for n in range(0, combine_max + 1):
        candidate = _combine_large_universes(original_fo, core_fo, n)
        candidate = dedupe_or_idempotent(simplify_constants(candidate))
        verdict = verify_equivalent(
            original,
            candidate,
            semiring,
            vocab,
            value_set,
            exhaustive_sizes,
            samples,
            max_sample_size,
            seed,
        )
        ok = verdict.ok
        if ok:
            for check in extra_checks:
                extra = check(candidate)
                if not extra.ok:
                    verdict = extra
                    ok = False
                    break
        if ok:
            report.threshold = n
            report.output = canonical_bound_names(flatten_sigma1(candidate))
            report.verification = verdict
            return report
        last_failure = verdict
    report.threshold = combine_max
    report.output = None
    report.verification = last_failure
    return report


def rewrite_sigma1_strict(
    sentence: Formula,
    semiring: Semiring = VITERBI,
    value_set: Sequence = VITERBI_GRID,
    max_gate_size: int = 2,
    exhaustive_sizes: Sequence[int] = (1, 2, 3),
    samples: int = 1000,
    max_sample_size: int = 5,
    seed: int = 0,
    combine_max: int = 3,
) -> RewriteReport:
    if semiring.id not in STRICT_SEMIRING_IDS:
        raise PreconditionError(f"{semiring.id} is not one of the strict semirings")
    if not is_sentence(sentence):
        raise PreconditionError("input must be a sentence")
    vocab = Vocabulary.of_formula(sentence)
    report = RewriteReport(sentence, None, 0)
    report.gate = check_preservation(
        sentence, semiring, "extensions", max_gate_size, value_set, vocab
    )
    if report.gate.refuted:
        return report
    work = fo_to_foneq(sentence) if is_fo(sentence) else sentence
    work = simplify_constants(work)
    while True:
        paths = _innermost_forall_paths(work)
        if not paths:
            break
        path = paths[0]
        sub = path_get(work, path)
        probe = is_eventually_trivial(sub)
        replacement = TRUE if probe.verdict == "trivial" else FALSE
        report.substitutions.append(
            {
                "subformula": sub,
                "verdict": probe.verdict,
                "replaced_by": replacement,
                "probe_threshold": probe.threshold,
            }
        )
        work = simplify_constants(substitute_subformula(work, path, replacement))
    return _finish_rewrite(
        sentence,
        work,
        semiring,
        vocab,
        value_set,
        report,
        exhaustive_sizes,
        samples,
        max_sample_size,
        seed,
        combine_max,
    )


def rewrite_sigma1_lattice(
    sentence: Formula,
    exhaustive_sizes: Sequence[int] = (1, 2, 3),
    samples: int = 400,
    max_sample_size: int = 4,
    seed: int = 0,
    combine_max: int = 3,
) -> RewriteReport:
    if not is_sentence(sentence):
        raise PreconditionError("input must be a sentence")
    vocab = Vocabulary.of_formula(sentence)
    report = RewriteReport(sentence, None, 0)
    report.gate = check_preservation(sentence, S3, "extensions", 2, S3_VALUES, vocab)
    if report.gate.refuted:
        return report
    work = fo_to_foneq(sentence) if is_fo(sentence) else sentence
    work = simplify_constants(work)
    while True:
        paths = _innermost_forall_paths(work)
        if not paths:
            break
        path = paths[0]
        sub = path_get(work, path)
        y = sub.var
        zs, disjuncts = existential_prenex_dnf(sub.body)
        chi_parts = []
        psi_parts = []
        for theta in disjuncts:
            if y in free_vars(theta):
                psi_parts.append(theta)
            else:
                chi_parts.append(theta)
        pieces = []
        for theta in chi_parts:
            keep = [z for z in zs if z in free_vars(theta)]
            piece = theta
            for z in reversed(keep):
                piece = Exists(z, piece, distinct=True)
            pieces.append(piece)
        replacement = dedupe_or_idempotent(make_or(pieces)) if pieces else FALSE
        report.substitutions.append(
            {
                "subformula": sub,
                "verdict": "continuity-split",
                "kept": len(chi_parts),
                "dropped_residual": len(psi_parts),
                "replaced_by": replacement,
            }
        )
        work = simplify_constants(substitute_subformula(work, path, replacement))
    fuzzy_grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

    def fuzzy_check(candidate):
        return verify_equivalent(
            sentence,
            candidate,
            FUZZY,
            vocab,
            fuzzy_grid,
            exhaustive_sizes=(),
            samples=samples,
            max_sample_size=max_sample_size,
            seed=seed,
        )

    return _finish_rewrite(
        sentence,
        work,
        S3,
        vocab,
        S3_VALUES,
        report,
        exhaustive_sizes,
        samples,
        max_sample_size,
        seed,
        combine_max,
        extra_checks=(fuzzy_check,),
    )
