"""A frozen copy of the evaluation-based triviality test that the structural
walk in `semlog.preservation` replaced, kept as the oracle of the
differential test in test_triviality.py.  `is_trivial_at` builds the
all-false Boolean interpretation over {1..n} and evaluates the formula on it;
`is_eventually_trivial` probes the sizes of `default_probe_range` up to
2^(|phi|+1) + qr(phi) + 2 and reads the verdict off the top three probes.  Do
not optimize it: its value is that it is the old semantics, line for line."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from semlog.errors import PreconditionError
from semlog.evaluation import evaluate
from semlog.formulas import Formula, free_vars, is_foneq, metrics
from semlog.interpretations import Interpretation, Vocabulary
from semlog.semirings import BOOLEAN


def is_trivial_at(formula: Formula, n: int) -> bool:
    if not is_foneq(formula):
        raise PreconditionError("triviality is defined for FO-distinct formulae")
    fv = sorted(free_vars(formula))
    if n < len(fv) + 1:
        raise PreconditionError(f"n = {n} too small for the instantiation of {fv}")
    env = {v: i + 1 for i, v in enumerate(fv)}
    all_false = Interpretation(BOOLEAN, range(1, n + 1), Vocabulary({}), {}, (False, False))
    return evaluate(all_false, formula, env)


@dataclass
class TrivialityVerdict:
    verdict: str  # trivial | non_trivial | unstable
    probes: Tuple[Tuple[int, bool], ...]
    threshold: int


def default_probe_range(formula: Formula, cap: Optional[int] = None) -> List[int]:
    m = metrics(formula)
    threshold = 2 ** (m.size + 1) + m.qr + 2
    if cap is not None:
        threshold = min(threshold, cap)
    lo = len(free_vars(formula)) + 1
    probes = set(range(lo, min(lo + 8, threshold + 1)))
    step = 16
    while step < threshold:
        probes.add(step)
        step *= 2
    probes.update({threshold - 2, threshold - 1, threshold})
    return sorted(p for p in probes if p >= lo)


def is_eventually_trivial(
    formula: Formula, probe_range: Optional[Sequence[int]] = None
) -> TrivialityVerdict:
    m = metrics(formula)
    threshold = 2 ** (m.size + 1) + m.qr + 2
    probes = sorted(default_probe_range(formula) if probe_range is None else probe_range)
    if not probes:
        raise PreconditionError("empty probe range: no size to probe")
    results = tuple((n, is_trivial_at(formula, n)) for n in probes)
    tail = [v for _, v in results[-3:]]
    if all(tail):
        verdict = "trivial"
    elif not any(tail):
        verdict = "non_trivial"
    else:
        verdict = "unstable"
    return TrivialityVerdict(verdict, results, threshold)
