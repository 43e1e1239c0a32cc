"""Seeded job lists for the four benchmark workloads and their known-answer checks.

A workload is built once per process from `--seed` (that is the set-up the
benchmark times) and then run as a closed loop: one job at a time, the next
job starting when the previous one returned.  Every job is checked after the
timed passes against an answer that the code under test did not produce on
its own.

Where a job's cost depends on the formula's shape (probe, provenance,
rewrite) the seed draws the relation symbols, variable names, literal signs
and job order, and the shapes are fixed: random shapes spread those job times
by an order of magnitude.  The strategies workload draws a fresh random
sentence for every job; it runs enough of them that their sum is steady.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from semlog import cli, games, preservation
from semlog.evaluation import evaluate
from semlog.formulas import (
    TRUE,
    And,
    Atom,
    Exists,
    Forall,
    Or,
    canonical_bound_names,
    free_vars,
    subformulas,
)
from semlog.games import eval_strategy
from semlog.interpretations import Vocabulary, enumerate_interpretations, random_interpretation
from semlog.parser import parse, render
from semlog.semirings import FUZZY, NAT, S3, VITERBI, semiring_from_id

# Relation symbols and variable names the seed draws from.  "A" and "E" are
# quantifier keywords and stay out.
RELATIONS = ("R", "Q", "P", "S", "T", "U", "V", "W")
VARIABLES = ("x", "y", "z", "u", "v", "w", "s", "t")

VITERBI_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
S3_VALUES = (1, 2)


@dataclass
class Job:
    """One unit of work.  `run` is what the timed loop calls; `check(job,
    output)` runs after the timed passes and returns None or why it failed."""

    jid: int
    label: str
    run: Callable[[], object]
    check: Callable[["Job", object], Optional[str]]
    data: dict = field(default_factory=dict)


def build(workload: str, seed: int) -> List[Job]:
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng, seed)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.jid = i
    return jobs


def _names(rng: random.Random) -> dict:
    """A fresh renaming of the template symbols {R}, {Q}, {x}, {y}, {z}."""
    r, q = rng.sample(RELATIONS, 2)
    x, y, z = rng.sample(VARIABLES, 3)
    return {"R": r, "Q": q, "x": x, "y": y, "z": z}


def run_cli(argv: List[str]):
    """Call the CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_job(label, argv, check, **data) -> Job:
    return Job(-1, label, lambda: run_cli(argv), check, dict(data, argv=argv))


# ---------------------------------------------------------------------------
# rewrite: strict rewrites of the criterion-9 corpus, criterion-10 lattice
# rewrites.  Verification runs at the pipelines' defaults.
# ---------------------------------------------------------------------------

# The unary sentences, the only corpus case whose combine step reaches n=2,
# and the cheapest two-relation sentence (8 s on its own; the others take
# 9-25 s and would not fit two passes in a run).
REWRITE_STRICT = (
    ("(A! {x}. {R}({x})) | E! {x}. {R}({x})", "viterbi"),
    ("(A! {x}. {R}({x})) | E! {x}. {R}({x})", "lukasiewicz"),
    ("E {x}. {R}({x})", "viterbi"),
    ("E {x}. ({R}({x}) & {Q}({x}))", "lukasiewicz"),
    ("(A! {y}. E! {z}. (true | {R}({y}))) | E! {x}. {R}({x})", "viterbi"),
    ("E! {x}. ({R}({x}) | A! {y}. {R}({y}))", "lukasiewicz"),
)
REWRITE_LATTICE = (
    "A {y}. E {z}. {R}({z})",
    "A {y}. ((E {z}. {R}({z})) | E {z}. ({R}({z}) & {Q}({y})))",
)


def _build_rewrite(rng, seed):
    jobs = []
    for template, sr in REWRITE_STRICT:
        names = _names(rng)
        text = template.format(**names)
        argv = ["--seed", str(seed), "rewrite", "--mode", "strict", "--formula", text,
                "--semiring", sr]
        jobs.append(_cli_job(f"strict {sr} {text}", argv, _check_strict,
                             formula=parse(text), semiring=semiring_from_id(sr),
                             sample_seed=rng.randrange(2**32)))
    for template in REWRITE_LATTICE:
        names = _names(rng)
        text = template.format(**names)
        argv = ["--seed", str(seed), "rewrite", "--mode", "lattice", "--formula", text]
        expected = parse("E {z}. {R}({z})".format(**names))
        jobs.append(_cli_job(f"lattice {text}", argv, _check_lattice,
                             formula=parse(text), expected=expected))
    return jobs


def _sigma1(out: str):
    for line in out.splitlines():
        if line.startswith("sigma1: "):
            return parse(line[len("sigma1: "):])
    return None


def _rewrite_output(job, result):
    rc, out, err = result
    if rc != 0:
        return None, f"exit code {rc}: {err.strip() or out.strip()}"
    if "verify: verified" not in out:
        return None, "rewrite not verified"
    g = _sigma1(out)
    if g is None:
        return None, "no sigma1 line"
    if any(isinstance(h, Forall) for h in subformulas(g)):
        return None, f"output keeps a universal quantifier: {render(g)}"
    return g, None


def _check_strict(job, result):
    g, why = _rewrite_output(job, result)
    if why:
        return why
    # Independent of the pipeline's own verification: compare the input and
    # the output on fresh random interpretations.
    f, sr = job.data["formula"], job.data["semiring"]
    vocab = Vocabulary.of_formula(f)
    rng = random.Random(job.data["sample_seed"])
    for _ in range(25):
        pi = random_interpretation(sr, vocab, rng.randrange(1, 5), VITERBI_GRID, rng)
        if evaluate(pi, f) != evaluate(pi, g):
            return f"output differs from input on {pi!r}"
    return None


def _check_lattice(job, result):
    g, why = _rewrite_output(job, result)
    if why:
        return why
    if canonical_bound_names(g) != canonical_bound_names(job.data["expected"]):
        return f"expected {render(job.data['expected'])}, got {render(g)}"
    return None


# ---------------------------------------------------------------------------
# provenance: `semlog provenance --n k` in both flavours; `repro nat-polynomial`
# ---------------------------------------------------------------------------

# (template, n, flavour).  The spoly jobs spend their time pruning
# antichains; the natpoly jobs build large coefficient tables instead.
PROVENANCE = (
    ("A! {x}. E! {y}. ({s1}{R}({x}) | {s2}{Q}({y}))", 5, "spoly"),
    ("A! {x}. E! {y}. ({s1}{R}({x}) | {s2}{Q}({y}))", 5, "natpoly"),
    ("A! {x}. E! {y}. ({s1}{R}({x}) & {s2}{Q}({y}))", 5, "spoly"),
    ("A! {x}. E! {y}. ({s1}{R}({x}) & {s2}{Q}({y}))", 5, "natpoly"),
    ("A! {x}. A! {y}. ({s1}{R}({x}) | {s1}{R}({y}))", 4, "spoly"),
    ("A! {x}. A! {y}. ({s1}{R}({x}) | {s1}{R}({y}))", 5, "natpoly"),
    ("A! {x}. A! {y}. ({s1}{R}({x}) | {s2}{Q}({y}))", 3, "spoly"),
    ("A! {x}. A! {y}. ({s1}{R}({x}) | {s2}{Q}({y}))", 4, "natpoly"),
    ("A! {x}. A! {y}. ({s1}{R}({x}) | {s2}{Q}({x}) | {s1}{R}({y}))", 4, "natpoly"),
)
NAT_REPRO_SIZES = (4, 5)


def _build_provenance(rng, seed):
    jobs = []
    for template, n, flavour in PROVENANCE:
        names = _names(rng)
        signs = {"s1": rng.choice(("", "~")), "s2": rng.choice(("", "~"))}
        text = template.format(**names, **signs)
        argv = ["provenance", "--formula", text, "--n", str(n), "--semiring", flavour]
        jobs.append(_cli_job(f"{flavour} n={n} {text}", argv, _check_provenance,
                             formula=parse(text), n=n, flavour=flavour,
                             check_seed=rng.randrange(2**32)))
    for n in NAT_REPRO_SIZES:
        argv = ["repro", "nat-polynomial", "--n", str(n)]
        jobs.append(_cli_job(f"repro nat-polynomial n={n}", argv, _check_nat_repro, n=n))
    return jobs


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(.*)$")
_FACTOR_RE = re.compile(r"^x\[(~?)([A-Za-z_][A-Za-z0-9_']*)\(([\d,]*)\)\](?:\^(\d+))?$")


def parse_polynomial(text: str):
    """The printed polynomial as [(coefficient, [((rel, args, positive), exp)])]."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for part in text.split(" + "):
        m = _TERM_RE.match(part)
        coeff, body = int(m.group(1) or 1), m.group(2)
        if body.isdigit():
            terms.append((coeff * int(body), []))
            continue
        factors = []
        for factor in body.split("*"):
            fm = _FACTOR_RE.match(factor)
            if fm is None:
                raise ValueError(f"cannot read factor {factor!r}")
            neg, rel, args, exp = fm.groups()
            key = (rel, tuple(int(a) for a in args.split(",")), not neg)
            factors.append((key, int(exp or 1)))
        terms.append((coeff, factors))
    return terms


def _specialize(terms, interp):
    """Sum over the monomials of the product of the literal values."""
    sr = interp.semiring
    total = sr.zero
    for coeff, factors in terms:
        value = sr.one
        for (rel, args, positive), exp in factors:
            value = sr.mul(value, sr.power(interp.literal(rel, args, positive), exp))
        for _ in range(coeff):
            total = sr.add(total, value)
    return total


def _check_provenance(job, result):
    """The fundamental property: the polynomial specialised at a concrete
    interpretation equals direct evaluation there."""
    rc, out, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    try:
        terms = parse_polynomial(out)
    except ValueError as exc:
        return str(exc)
    f, n = job.data["formula"], job.data["n"]
    vocab = Vocabulary.of_formula(f)
    rng = random.Random(job.data["check_seed"])
    if job.data["flavour"] == "spoly":
        targets = ((VITERBI, VITERBI_GRID), (FUZZY, VITERBI_GRID), (S3, S3_VALUES))
    else:
        targets = ((NAT, (1, 2, 3)),)
    for sr, grid in targets:
        pi = random_interpretation(sr, vocab, n, grid, rng)
        want = evaluate(pi, f)
        got = _specialize(terms, pi)
        if got != want:
            return f"specialisation at {pi!r} gives {got!r}, evaluation {want!r}"
    return None


def _check_nat_repro(job, result):
    rc, out, err = result
    n = job.data["n"]
    if rc != 0 or f"pi_{n} value {n}*x^{n}" not in out:
        return f"expected pi_{n} value {n}*x^{n}, got rc={rc} {out.strip()!r}"
    return None


# ---------------------------------------------------------------------------
# strategies: a fresh random FO-distinct sentence (quantifier rank <= 2) per job
# ---------------------------------------------------------------------------

STRATEGY_JOBS = 480
VITERBI_SIZES = (4, 6)
S3_SIZES = (2, 3)
# Keeps enumeration bounded: sum_of_strategies_check enumerates every
# strategy of the size-3 game.
MAX_S3_STRATEGIES = 2000


def random_foneq_sentence(rng, relations, max_qr=2, budget=2):
    """A random FO-distinct sentence: distinct quantifiers, and/or, literals."""

    def build(scope, qleft, budget):
        moves = []
        if scope:
            moves += ["atom", "atom"]
        if qleft:
            moves += ["exists", "forall", "exists"]
        if budget and (scope or qleft):
            moves += ["and", "or"]
        if not moves:
            return TRUE
        move = rng.choice(moves)
        if move == "atom":
            return Atom(rng.choice(relations), (rng.choice(scope),), rng.random() < 0.8)
        if move in ("exists", "forall"):
            var = VARIABLES[len(scope)]
            cls = Exists if move == "exists" else Forall
            return cls(var, build(scope + [var], qleft - 1, budget), distinct=True)
        left = build(scope, qleft, budget - 1)
        right = build(scope, qleft, budget - 1)
        return (And if move == "and" else Or)(left, right)

    while True:
        f = build([], max_qr, budget)
        if isinstance(f, (And, Or, Exists, Forall)) and not free_vars(f):
            return f


def count_strategies(f, n):
    """Strategies of the game on {1..n}, counted on the formula alone: a
    distinct quantifier ranges over n minus its free variables (exact when
    those take distinct values, as they do at quantifier rank <= 2)."""
    if isinstance(f, Or):
        return count_strategies(f.left, n) + count_strategies(f.right, n)
    if isinstance(f, And):
        return count_strategies(f.left, n) * count_strategies(f.right, n)
    if isinstance(f, (Exists, Forall)):
        d = max(n - len(free_vars(f)), 0)
        inner = count_strategies(f.body, n)
        return d * inner if isinstance(f, Exists) else inner**d
    return 1


def _build_strategies(rng, seed):
    relations = rng.sample(RELATIONS, 2)
    vocab = Vocabulary({r: 1 for r in relations})
    jobs = []
    while len(jobs) < STRATEGY_JOBS:
        f = random_foneq_sentence(rng, relations)
        if count_strategies(f, max(S3_SIZES)) > MAX_S3_STRATEGIES:
            continue
        viterbi = [random_interpretation(VITERBI, vocab, n, VITERBI_GRID, rng)
                   for n in VITERBI_SIZES]
        s3 = [random_interpretation(S3, vocab, n, S3_VALUES, rng) for n in S3_SIZES]
        jobs.append(Job(-1, render(f), _strategy_runner(f, viterbi, s3), _check_strategies,
                        dict(formula=f, viterbi=viterbi, s3=s3)))
    return jobs


def _strategy_runner(f, viterbi, s3):
    # Module attributes are looked up at call time, so a traced run sees them.
    # The optimal result's dynamic program (with its game tree) is dropped, so
    # that the outputs kept for the checks do not set the peak memory.
    def run():
        out = []
        for pi in viterbi:
            r = games.optimal(pi, f)
            out.append(("optimal", r.value, r.strategy, r.all_optimal_count))
            out.append(("existential",) + tuple(preservation.has_existential_optimal(pi, f)))
        for pi in s3:
            out.append(("sum", games.sum_of_strategies_check(pi, f)))
        return out

    return run


def _check_strategies(job, result):
    f = job.data["formula"]
    opts = [r[1:] for r in result if r[0] == "optimal"]
    exs = [r[1:] for r in result if r[0] == "existential"]
    sums = [r[1] for r in result if r[0] == "sum"]
    for pi, (value, strategy, _) in zip(job.data["viterbi"], opts):
        if value != evaluate(pi, f):
            return f"optimal value {value} != evaluation on {pi!r}"
        if eval_strategy(pi, strategy) != value:
            return "the returned optimal strategy does not reach the optimal value"
    for pi, (found, s) in zip(job.data["viterbi"], exs):
        if found and eval_strategy(pi, s) != evaluate(pi, f):
            return "existential-optimal strategy does not re-evaluate to the value"
    for pi, r in zip(job.data["s3"], sums):
        if not r.ok or r.eval_value != evaluate(pi, f):
            return f"sum of strategies {r.strategy_sum} != evaluation {r.eval_value}"
    return None


# ---------------------------------------------------------------------------
# probe: `semlog trivial --probe` on universal FO-distinct subformulas
# ---------------------------------------------------------------------------

# Shapes of size 5 to 7 with quantifier rank 2 (probe threshold 68, 132 and
# 260).  The probe's cost is set by how many subformulas depend on both
# quantified variables (n^2 memo entries at n up to the threshold), so the
# shapes are fixed and the seed renames and re-signs them.  {x} is free.
PROBE = (
    "A! {y}. E! {z}. {s1}{R}({z}) & {s2}{Q}({y})",
    "A! {y}. {s1}{R}({y}) | (E! {z}. {s2}{Q}({y}))",
    "A! {y}. E! {z}. {s1}{R}({x}) | {s2}{Q}({z})",
    "A! {y}. E! {z}. {s1}{R}({z}) | {s2}{Q}({y})",
    "A! {y}. (E! {z}. {s1}{R}({y})) & (E! {z}. {s2}{Q}({y}))",
    "A! {y}. (E! {z}. {s1}{Q}({y})) | (E! {z}. {s2}{R}({x}))",
    "A! {y}. E! {z}. {s1}{R}({y}) & true & {s2}{Q}({z})",
    "A! {y}. E! {z}. ({s1}{Q}({y}) | {s2}{Q}({x})) & {s1}{R}({x})",
    "A! {y}. E! {z}. {s1}{R}({z}) | {s2}{R}({y}) | {s1}{Q}({z})",
)
BRUTE_FORCE_SIZES = (2, 3)


def _build_probe(rng, seed):
    jobs = []
    for template in PROBE:
        names = _names(rng)
        signs = {"s1": rng.choice(("", "~")), "s2": rng.choice(("", "~"))}
        text = template.format(**names, **signs)
        argv = ["trivial", "--probe", "--formula", text]
        jobs.append(_cli_job(f"probe {text}", argv, _check_probe, formula=parse(text)))
    return jobs


_PROBES_RE = re.compile(r"\((\d+), (True|False)\)")


def brute_force_trivial(f, n):
    """Triviality at n straight from the definition: value one in every
    model-defining S3 interpretation of size n, for every distinct
    instantiation of the free variables."""
    fv = sorted(free_vars(f))
    vocab = Vocabulary.of_formula(f)
    for pi in enumerate_interpretations(S3, vocab, n, S3_VALUES):
        for inst in itertools.permutations(pi.universe, len(fv)):
            if evaluate(pi, f, dict(zip(fv, inst))) != S3.one:
                return False
    return True


def _check_probe(job, result):
    rc, out, err = result
    verdict = re.search(r"^verdict: (\w+)$", out, re.M)
    probes_line = re.search(r"^probes: (.*)$", out, re.M)
    if verdict is None or probes_line is None:
        return f"unreadable output rc={rc}: {out.strip()!r} {err.strip()!r}"
    if rc != (0 if verdict.group(1) == "trivial" else 1):
        return f"exit code {rc} does not match verdict {verdict.group(1)}"
    probes = {int(n): v == "True" for n, v in _PROBES_RE.findall(probes_line.group(1))}
    f = job.data["formula"]
    for n in BRUTE_FORCE_SIZES:
        if n in probes and probes[n] != brute_force_trivial(f, n):
            return f"probe at n={n} says {probes[n]}, brute force disagrees"
    if not any(n in probes for n in BRUTE_FORCE_SIZES):
        return "no probe at n <= 3 to check"
    return None


def summary(job: Job, result) -> object:
    """A comparable form of a job's output, for cross-pass and traced-vs-untraced
    equality."""
    if isinstance(result, tuple):  # (exit code, stdout, stderr) or ("raised", traceback)
        return result
    out = []
    for kind, *r in result:
        if kind == "optimal":
            value, strategy, count = r
            out.append((kind, VITERBI.format_value(value), count, strategy_key(strategy)))
        elif kind == "existential":
            found, s = r
            out.append((kind, found, strategy_key(s) if s is not None else None))
        else:
            (rep,) = r
            out.append((kind, rep.ok, S3.format_value(rep.strategy_sum), rep.strategy_count))
    return tuple(out)


def strategy_key(s):
    return (render(s.formula), s.env, s.tag, tuple(strategy_key(c) for c in s.children))


BUILDERS = {
    "rewrite": _build_rewrite,
    "provenance": _build_provenance,
    "strategies": _build_strategies,
    "probe": _build_probe,
}
WORKLOADS = tuple(BUILDERS)
