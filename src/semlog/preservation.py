"""Preservation checking, triviality and redundancy analysis, counterexample
construction, S3 reduction checks, and the two universal-quantifier
elimination pipelines.

Both pipelines run one driver with their own replacement rule for an
innermost universal: true or false by eventual triviality (strict), or the
finite-continuity split (lattice).  Every refutation witness returned by a
checker re-validates through plain evaluation; rewrites run a bounded
verification suite once per target semiring (the strict semiring; S3, then
fuzzy), certified size by size by pi_n over absorptive semirings, and report
a witness instead of returning a wrong formula.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import GuardExceeded, PreconditionError
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Exists,
    Forall,
    Formula,
    Or,
    Top,
    _exists_distinct,
    _fold,
    assemble_prenex_dnf,
    canonical_bound_names,
    dedupe_or_idempotent,
    existential_prenex_dnf,
    find_subformula_paths,
    flatten_sigma1,
    fo_to_foneq,
    foneq_to_fo,
    is_fo,
    is_foneq,
    is_sentence,
    make_or,
    path_get,
    psi_n,
    qr,
    simplify_constants,
    size,
    substitute_subformula,
)
from .games import (
    Strategy,
    _first_optimal,
    _interp_tables,
    _map_strategy,
    _require_maxplus,
    _valuer,
    build_game_tree,
    classify,
    enumerate_strategies,
    eval_strategy,
    literal_elements,
    strategy_nodes,
    translate_strategy,
)
from .interpretations import (
    Interpretation,
    Vocabulary,
    _atom_choices,
    _literal_pair,
    _mapped,
    compose_hom,
    enumerate_interpretations,
    is_subinterpretation,
    check_interp_hom,
    random_interpretation,
)
from .evaluation import compile_formula, evaluate, evaluate_set, run_plan
from .lattices import FiniteLattice, LatticeSemiring, adjoin_bottom, find_weakly_separating_hom
from .polynomials import SPOLY, collapse_exponents
from .provenance import pi_n
from .semirings import FUZZY, INF, S3, VITERBI, Semiring

STRICT_SEMIRING_IDS = {"viterbi", "tropical", "lukasiewicz", "doubt"}

S3_VALUES = (1, 2)  # eps and 1
VITERBI_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
FUZZY_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


# ---------------------------------------------------------------------------
# Preservation checking
# ---------------------------------------------------------------------------


@dataclass
class PreservationVerdict:
    prop: str
    result: str  # holds_on_search_space | refuted
    witness: Optional[Tuple[Interpretation, Interpretation, Optional[dict]]]
    search_space: str
    values: Optional[Tuple[object, object]] = None
    certified: Tuple[Tuple[int, int], ...] = ()  # size pairs (a, b) decided by pi_n alone

    @property
    def refuted(self) -> bool:
        return self.result == "refuted"

    def __bool__(self):
        return not self.refuted


def _violates(sr: Semiring, prop: str, va, vb) -> bool:
    if prop == "subinterpretations":
        return not sr.leq(vb, va)
    return not sr.leq(va, vb)


def _lower_pairs(sr: Semiring, value_set):
    """Replacement candidate pairs for witness minimization: false first, then
    values ascending in the natural order."""
    ordered = sorted(value_set, key=lambda v: sum(sr.leq(v, w) for w in value_set), reverse=True)
    return [_literal_pair(sr, v) for v in (sr.zero, *ordered)]


def _minimize_extension_witness(plan, sr, prop, pa, pb, value_set):
    keep = set(pa.universe)
    current = pb
    # drop extra elements while the violation persists
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
    # lower literal values toward the grid minimum
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


def _valued(plans: Sequence, semiring: Semiring, vocab: Vocabulary, sizes: Iterable[int],
            grid: Sequence, guard: int):
    """(interp, [value of each plan]) for each interpretation of each size over
    the grid, in size order, then labelled order.  `sizes` is read lazily; the
    grid is checked on the first step, even when no size is left to enumerate."""
    _atom_choices(semiring, grid)
    for size in sizes:
        for interp in enumerate_interpretations(semiring, vocab, size, grid, guard):
            yield interp, [run_plan(p, interp) for p in plans]


def check_preservation(
    formula: Formula,
    semiring: Semiring,
    prop: str,
    max_size: int = 2,
    value_set: Sequence = VITERBI_GRID,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> PreservationVerdict:
    """Bounded check of a preservation property over the grid (checked
    against the carrier even where nothing is enumerated).  A size pair
    a < b with pi_a <= pi_b (see `_pi_n_valuer`) is certified for extensions
    over every grid, one with pi_b <= pi_a for subinterpretations; size b is
    enumerated only against the sizes a left uncertified.  A certified pair
    holds no violation, so the witness is the one a full search finds.

    Sound for refutation; a holding verdict only covers the declared search
    space, which may not be empty.  Witnesses are greedily minimized: element
    removal first, then value lowering toward the grid minimum.
    """
    if prop not in ("extensions", "subinterpretations", "homomorphisms"):
        raise PreconditionError(f"unknown property {prop!r}")
    if max_size < 1:
        raise PreconditionError(f"max_size must be at least 1, got {max_size}")
    vocab = vocab or Vocabulary.of_formula(formula)
    space = f"sizes<= {max_size}, grid {[semiring.format_value(v) for v in value_set]}"
    plan = compile_formula(formula)
    if prop != "homomorphisms":
        pi = _pi_n_valuer(semiring, vocab, (formula,), (plan,))
        certified, open_at = [], {}

        def open_sizes():
            for b_size in range(2, max_size + 1):
                open_at[b_size] = [a for a in range(1, b_size)
                                   if not pi or _violates(SPOLY, prop, pi(a)[0], pi(b_size)[0])]
                certified.extend((a, b_size) for a in range(1, b_size) if a not in open_at[b_size])
                if open_at[b_size]:
                    yield b_size

        for pb, (vb,) in _valued((plan,), semiring, vocab, open_sizes(), value_set, guard):
            for a_size in open_at[len(pb.universe)]:
                for subset in itertools.combinations(pb.universe, a_size):
                    pa = pb.restrict(subset)
                    if _violates(semiring, prop, run_plan(plan, pa), vb):
                        pa, pb = _minimize_extension_witness(plan, semiring, prop, pa, pb,
                                                             value_set)
                        values = (run_plan(plan, pa), run_plan(plan, pb))
                        return PreservationVerdict(prop, "refuted", (pa, pb, None), space,
                                                   values, tuple(certified))
        return PreservationVerdict(prop, "holds_on_search_space", None, space,
                                   certified=tuple(certified))
    valued = {}  # size -> [(interp, value)], filled as b first reaches it, all while a is 1
    for a_size in range(1, max_size + 1):
        for b_size in range(1, max_size + 1):
            if b_size not in valued:
                search = _valued((plan,), semiring, vocab, (b_size,), value_set, guard)
                valued[b_size] = [(p, v) for p, (v,) in search]
            for pb, vb in valued[b_size]:
                for pa, va in valued[a_size]:
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


# ---------------------------------------------------------------------------
# Triviality
# ---------------------------------------------------------------------------


def is_trivial_at(formula: Formula, n: int) -> bool:
    """Decide whether pi_n evaluates the formula to 1 for the canonical
    instantiation of its free variables (sufficient for all instantiations:
    only the equality type matters).

    In pi_n a sum is 1 iff some summand is 1, a product iff every factor is,
    and no literal is: the formula must be true in the Boolean interpretation
    over {1..n} where every literal is false.  That interpretation is
    symmetric, so one element stands for a distinct quantifier's range:
    `E! x. psi` is [n > |fv|] and psi, `A! x. psi` is [n <= |fv|] or psi
    (fv: the free variables of the quantified formula).  The walk builds no
    universe, but a constant outside {1..n} raises where evaluation would:
    in an atom visited under no empty range."""
    if not is_foneq(formula):
        raise PreconditionError("triviality is defined for FO-distinct formulae")
    fv = list(formula.free)
    if n < len(fv) + 1:
        raise PreconditionError(f"n = {n} too small for the instantiation of {fv}")
    universe = range(1, n + 1)

    def step(f, *below):
        """(value, the error a valuation of f raises or None)."""
        kind = type(f)
        if kind is Exists or kind is Forall:
            return below[0] if n > len(f.free) else (kind is Forall, None)
        if kind is And or kind is Or:
            (left, lerr), (right, rerr) = below
            return (left and right) if kind is And else (left or right), lerr or rerr
        if kind is Atom:
            bad = [t for t in f.args if not isinstance(t, str) and t not in universe]
            return False, PreconditionError(f"element {bad[0]} not in universe") if bad else None
        if kind is Top or kind is Bottom:
            return kind is Top, None
        raise PreconditionError(f"not a formula: {f!r}")

    value, error = _fold(formula, step)
    if error:
        raise error
    return value


@dataclass
class TrivialityVerdict:
    verdict: str  # trivial | non_trivial
    probes: Tuple[Tuple[int, bool], ...]
    threshold: int

    def __bool__(self):
        return self.verdict == "trivial"


def is_eventually_trivial(formula: Formula) -> TrivialityVerdict:
    """Whether pi_n values the formula 1 for all large n.  A quantifier at
    depth d sees at most |fv| + d free variables, so no range is empty and the
    value is final at the threshold |fv| + qr + 1, the last size probed."""
    lo = len(formula.free) + 1
    threshold = lo + qr(formula)
    probes = tuple((n, is_trivial_at(formula, n)) for n in range(lo, threshold + 1))
    return TrivialityVerdict("trivial" if probes[-1][1] else "non_trivial", probes, threshold)


# ---------------------------------------------------------------------------
# Redundancy: existential / almost existential optimal strategies
# ---------------------------------------------------------------------------


def has_existential_optimal(
    interp: Interpretation, formula: Formula
) -> Tuple[bool, Optional[Strategy]]:
    """Whether some optimal strategy avoids universal nodes entirely; requires
    a linearly ordered, additively idempotent semiring, as `optimal` does.
    Decided exactly (the tie family of `optimal` can miss optimal strategies
    when an absorbing zero is involved) by the kept tables of `optimal`: the
    forall-barred root against the optimal value, which over such a semiring
    is the sum over strategies.  After `optimal` nothing is valued again.
    The strategy returned takes the first maximal child at every choice node."""
    tree = build_game_tree(formula, interp.universe)
    _require_maxplus(interp.semiring)
    table, barred = _interp_tables(tree, interp)
    value, ties, _ = barred[tree.root]
    if not ties or value != table[tree.root][0]:
        return False, None
    return True, _first_optimal(tree, barred)


def has_almost_existential_optimal(
    interp: Interpretation, formula: Formula, guard: int = 10**6
) -> Tuple[bool, Optional[Strategy]]:
    """Search all strategies for an optimal one that does not rely on forall."""
    tree = build_game_tree(formula, interp.universe)
    target = evaluate(interp, formula)
    for s, v in enumerate_strategies(tree, guard, interp):
        if v == target and classify(s).cls != "relies_on_forall":
            return True, s
    return False, None


# ---------------------------------------------------------------------------
# Excluding 1-valuations
# ---------------------------------------------------------------------------


def _numeric(v) -> Fraction:
    if v == INF:
        return None
    return Fraction(v)


def eliminate_one_valuations(
    interp: Interpretation, formula: Formula, guard: int = 10**6
) -> Interpretation:
    """Replace every literal valued one by a value strictly below one, close
    enough that the strategy preorder is refined rather than disturbed.

    The bound uses the minimum strategy-value gap delta (including a dummy
    zero strategy) and the maximum leaf count e: for the Viterbi semiring any
    rational s with s^e > 1 - delta/value(psi) works, for the Lukasiewicz
    semiring s > 1 - delta/e, for the tropical semiring and the semiring of
    doubt s < delta/e; s is found by scanning 1 - 1/k or 1/k."""
    sr = interp.semiring
    if sr.id not in STRICT_SEMIRING_IDS:
        raise PreconditionError(f"{sr.id} is not one of the strict semirings")
    v0 = evaluate(interp, formula)
    if v0 == sr.zero:
        raise PreconditionError("formula evaluates to zero")
    if all(
        v != sr.one for key in interp.atom_keys() for v in interp.pair(*key)
    ):
        return interp
    tree = build_game_tree(formula, interp.universe)
    values = {sr.zero}
    max_leaves = 0
    for s, v in enumerate_strategies(tree, guard, interp):
        values.add(v)
        leaves = sum(1 for leaf in Strategy.leaves_of(s) if isinstance(leaf.formula, Atom))
        max_leaves = max(max_leaves, leaves)
    e = max(max_leaves, 1)
    numeric = sorted(x for x in (_numeric(v) for v in values) if x is not None)
    gaps = [b - a for a, b in zip(numeric, numeric[1:]) if b > a]
    delta = min(gaps) if gaps else Fraction(1)

    def scan(cond, form):
        for k in itertools.count(2):
            s = form(k)
            if cond(s):
                return s

    if sr.id == "viterbi":
        bound = 1 - delta / Fraction(v0)
        s_new = scan(lambda s: s ** e > bound, lambda k: 1 - Fraction(1, k))
    elif sr.id == "lukasiewicz":
        s_new = scan(lambda s: s > 1 - delta / e, lambda k: 1 - Fraction(1, k))
    else:  # tropical, doubt: small positive value below delta/e
        s_new = scan(lambda s: s < delta / e, lambda k: Fraction(1, k))
    out = interp.with_values(lambda v: s_new if v == sr.one else v)
    if evaluate(out, formula) == sr.zero:
        raise PreconditionError("replacement unexpectedly zeroed the formula")
    return out


# ---------------------------------------------------------------------------
# Shrinking a counterexample via strategy translation
# ---------------------------------------------------------------------------


@dataclass
class ShrinkReport:
    small: Interpretation
    small_value: object
    original_value: object
    translated: Strategy


def shrink_counterexample(
    interp: Interpretation, strategy: Strategy, formula: Formula
) -> ShrinkReport:
    """Drop one element from a large interpretation and certify a strict
    extension-preservation violation, by translating the given optimal
    strategy down one universe size."""
    sr = interp.semiring
    r = qr(formula)
    k = len(interp.universe)
    need = 2 * (2 ** size(formula) + r + 1)
    if k < need:
        raise PreconditionError(f"universe size {k} below the bound {need}")
    v0 = evaluate(interp, formula)
    if v0 == sr.zero:
        raise PreconditionError("formula evaluates to zero")
    value_of = _valuer(interp)
    if value_of(strategy) != v0:
        raise PreconditionError("strategy is not optimal for the interpretation")
    has_good_forall = any(
        node.kind == "forall"
        and node.children
        and all(value_of(c) != sr.one for c in node.children)
        for node in strategy_nodes(strategy)
    )
    if not has_good_forall:
        raise PreconditionError(
            "no forall node with all child subtrees valued differently from one"
        )
    missing = sorted(set(interp.universe) - set(literal_elements(strategy)))
    if len(missing) < r + 1:
        raise PreconditionError(f"need {r + 1} elements outside the leaf literals")
    if tuple(interp.universe) != tuple(range(1, k + 1)):
        raise PreconditionError("universe must be 1..k")
    n = k - r - 1
    # permute the universe so the unused elements become n+1 .. n+r+1
    chosen = missing[-(r + 1):]
    order = [x for x in range(1, k + 1) if x not in chosen] + chosen
    perm = {e: i for i, e in enumerate(order, 1)}
    strat2 = _map_strategy(strategy, lambda e: perm[e])
    interp2 = interp.relabel(perm)
    tstar, _dropped = translate_strategy(strat2, n, r)
    small = interp2.restrict(range(1, n + r + 1))
    small_strat_value = eval_strategy(small, tstar)
    small_value = evaluate(small, formula)
    if not (sr.leq(v0, small_strat_value) and v0 != small_strat_value):
        raise PreconditionError("translated strategy did not strictly improve")
    if not (sr.leq(v0, small_value) and v0 != small_value):
        raise PreconditionError("shrunk interpretation does not refute preservation")
    return ShrinkReport(small, small_value, v0, tstar)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------


@dataclass
class VerificationResult:
    ok: bool
    witness: Optional[Interpretation]
    checked: int  # concrete interpretations valued
    description: str
    certified: Tuple[int, ...]  # sizes decided by pi_n alone

    def __bool__(self):
        return self.ok


def _pi_n_valuer(semiring: Semiring, vocab: Vocabulary, formulas: Sequence[Formula],
                 plans: Sequence) -> Optional[Callable[[int], tuple]]:
    """at(n): the compiled formulas' values on pi_n, collapsed when
    multiplication is idempotent, each n valued once; None when pi_n
    certifies nothing.  A model-defining size-n interpretation into an
    absorptive semiring values a formula at a specialization of its pi_n
    value (through the collapse when multiplication is idempotent), so an
    equality or order between these values holds on every such
    interpretation.  A relation outside vocab (false in every interpretation,
    not in pi_n) or a constant (it breaks the symmetry by which pi_a stands
    for every a-subset of {1..b}) turns the certificate off."""
    if (not semiring.absorptive
            or any(slot is not None for p in plans for slot in p.blank)  # constants
            or not set(Vocabulary.of_formula(*formulas).relations) <= set(vocab.relations)):
        return None
    cache = {}

    def at(n):
        if n not in cache:
            pi = pi_n(vocab, n)
            values = [run_plan(p, pi) for p in plans]
            if semiring.multiplicatively_idempotent:
                values = [collapse_exponents(v) for v in values]
            cache[n] = tuple(values)
        return cache[n]

    return at


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
    """Compare f and g on the exhaustive sizes and on random samples of sizes
    1..max_sample_size, over the grid value_set (checked against the carrier
    even where nothing is enumerated).  Over an absorptive semiring a size is
    first tried on pi_n (see `_pi_n_valuer`): where the polynomials agree it
    is certified for every grid, and no interpretation of that size is
    enumerated or drawn; drawing stops once every sample size is certified.
    A refutation is a concrete interpretation on which the two values
    differ."""
    f_plan, g_plan = compile_formula(f), compile_formula(g)
    pi = _pi_n_valuer(semiring, vocab, (f, g), (f_plan, g_plan))
    equal_at = {}
    enumerated, sampled = [], set()

    def certified(n):
        if n not in equal_at:
            equal_at[n] = pi is not None and pi(n)[0] == pi(n)[1]
        return equal_at[n]

    def uncertified():
        for n in exhaustive_sizes:
            if not certified(n):
                enumerated.append(n)
                yield n

    def drawn():
        rng = random.Random(seed)
        left = set(range(1, max_sample_size + 1))  # the sizes not yet certified
        for _ in range(samples):
            n = rng.randrange(1, max_sample_size + 1)
            if not certified(n):
                sampled.add(n)
                interp = random_interpretation(semiring, vocab, n, value_set, rng)
                yield interp, [run_plan(f_plan, interp), run_plan(g_plan, interp)]
            else:
                left.discard(n)
                if not left:  # every later draw lands on a certified size
                    return

    exhaustive = _valued((f_plan, g_plan), semiring, vocab, uncertified(), value_set, guard)
    witness, checked = None, 0
    for interp, (fv, gv) in itertools.chain(exhaustive, drawn()):
        checked += 1
        if fv != gv:
            witness = interp
            break
    sizes = tuple(sorted(n for n, ok in equal_at.items() if ok))
    desc = (
        f"over {semiring.id}: certified by pi_n at sizes {sizes}; enumerated sizes "
        f"{tuple(enumerated)}; sampled sizes {tuple(sorted(sampled))}; "
        f"interpretations checked: {checked}"
    )
    return VerificationResult(witness is None, witness, checked, desc, sizes)


# ---------------------------------------------------------------------------
# Rewriting pipelines
# ---------------------------------------------------------------------------


@dataclass
class RewriteReport:
    input: Formula
    output: Optional[Formula]
    threshold: int
    substitutions: List[dict] = field(default_factory=list)
    verifications: List[VerificationResult] = field(default_factory=list)  # in target order
    gate: Optional[PreservationVerdict] = None

    @property
    def verification(self) -> Optional[VerificationResult]:
        """The first failing verification, or else the first."""
        for result in self.verifications:
            if not result:
                return result
        return self.verifications[0] if self.verifications else None

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
        for result in self.verifications:
            status = "verified" if result.ok else "FAILED"
            lines.append(f"verify: {status} ({result.description})")
        return "\n".join(lines)


def _innermost_forall_paths(f: Formula) -> List[tuple]:
    """Paths to distinct-universal subformulae whose bodies are universal
    free, in leftmost order (no two such nodes nest, so pre-order is it)."""
    return find_subformula_paths(
        f,
        lambda g: isinstance(g, Forall)
        and g.distinct
        and g.body.metrics.qr_forall == 0,
    )


def _combine_large_universes(
    original_fo: Formula, core_fo: Formula, n: int
) -> Formula:
    """The size-split combination: existentially guard the core with n
    pairwise distinct elements and disjoin the size-i unfoldings for i <= n."""
    guarded = _exists_distinct(core_fo, n, "g", lambda xs: core_fo)
    return make_or([guarded] + [psi_n(original_fo, i) for i in range(1, n + 1)])


def _rewrite(sentence: Formula, targets, rule, samples: int, max_sample_size: int,
             seed: int) -> RewriteReport:
    """The elimination both pipelines share.  `targets` holds (semiring, grid,
    exhaustive sizes) triples; the first also runs the extension-preservation
    gate at sizes <= 2.  `rule` maps an innermost distinct universal to its
    substitution record, whose "replaced_by" takes its place.  Once no
    universal is left, the size-split combinations n = 0..3 are tried in turn
    and the first that every target verifies is accepted."""
    if not is_sentence(sentence):
        raise PreconditionError("input must be a sentence")
    vocab = Vocabulary.of_formula(sentence)
    report = RewriteReport(sentence, None, 0)
    semiring, grid, _ = targets[0]
    report.gate = check_preservation(sentence, semiring, "extensions", 2, grid, vocab)
    if report.gate.refuted:
        return report
    work = simplify_constants(fo_to_foneq(sentence) if is_fo(sentence) else sentence)
    while paths := _innermost_forall_paths(work):
        record = rule(path_get(work, paths[0]))
        report.substitutions.append(record)
        work = simplify_constants(substitute_subformula(work, paths[0], record["replaced_by"]))
    core_fo = dedupe_or_idempotent(simplify_constants(foneq_to_fo(work)))
    original_fo = sentence if is_fo(sentence) else foneq_to_fo(sentence)
    for n in range(4):
        candidate = _combine_large_universes(original_fo, core_fo, n)
        candidate = dedupe_or_idempotent(simplify_constants(candidate))
        report.threshold = n
        report.verifications = []
        for semiring, grid, exhaustive_sizes in targets:
            result = verify_equivalent(sentence, candidate, semiring, vocab, grid,
                                       exhaustive_sizes, samples, max_sample_size, seed)
            report.verifications.append(result)
            if not result:
                break
        else:
            report.output = canonical_bound_names(flatten_sigma1(candidate))
            return report
    return report


def _triviality_rule(sub: Formula) -> dict:
    probe = is_eventually_trivial(sub)
    return {
        "subformula": sub,
        "verdict": probe.verdict,
        "replaced_by": TRUE if probe else FALSE,
        "probe_threshold": probe.threshold,
    }


def rewrite_sigma1_strict(
    sentence: Formula,
    semiring: Semiring = VITERBI,
    seed: int = 0,
) -> RewriteReport:
    """Eliminate universal quantifiers over the Viterbi, tropical,
    Lukasiewicz, or doubt semiring: substitute each innermost universal
    subformula by true if eventually trivial and false otherwise, then patch
    small universes with the size-i unfoldings and flatten to a prenex
    existential sentence.  A preservation sanity gate runs first and a
    bounded verification suite decides acceptance."""
    if semiring.id not in STRICT_SEMIRING_IDS:
        raise PreconditionError(f"{semiring.id} is not one of the strict semirings")
    targets = ((semiring, VITERBI_GRID, (1, 2, 3)),)
    return _rewrite(sentence, targets, _triviality_rule, 1000, 5, seed)


def _continuity_split(sub: Formula) -> dict:
    zs, disjuncts = existential_prenex_dnf(sub.body)
    kept = [theta for theta in disjuncts if sub.var not in theta.free]
    pieces = [assemble_prenex_dnf([z for z in zs if z in theta.free], [theta]) for theta in kept]
    return {
        "subformula": sub,
        "verdict": "continuity-split",
        "kept": len(kept),
        "dropped_residual": len(disjuncts) - len(kept),
        "replaced_by": dedupe_or_idempotent(make_or(pieces)),
    }


def rewrite_sigma1_lattice(sentence: Formula, seed: int = 0) -> RewriteReport:
    """Eliminate universal quantifiers over lattice semirings (any lattice
    other than the Boolean): repeatedly bring the innermost universal body
    into existential prenex DNF, pull out the disjuncts free of the
    universal variable by finite continuity, and drop the residual (its
    strategies all rely on the universal quantifier).  The gate runs over S3;
    a candidate is verified over S3 and then over the fuzzy semiring, where
    equal collapsed pi_n polynomials certify a size, and the report holds
    one verification per semiring."""
    targets = ((S3, S3_VALUES, (1, 2, 3)), (FUZZY, FUZZY_GRID, ()))
    return _rewrite(sentence, targets, _continuity_split, 400, 4, seed)


# ---------------------------------------------------------------------------
# Entailment: bounded over a grid, and the S3 criterion; counterexample lifting
# ---------------------------------------------------------------------------


@dataclass
class EntailmentVerdict:
    holds_on_sample: bool
    witness: Optional[Interpretation] = None
    checked: int = 0

    def __bool__(self):
        return self.holds_on_sample


def entails_at(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    semiring: Semiring,
    sizes: Sequence[int],
    value_set: Sequence,
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> EntailmentVerdict:
    """Check value(phi) <= value(psi) over every enumerated model-defining
    interpretation of the given sizes.  Sound for refutation only; a holding
    verdict is evidence bounded by the search space, which may not be empty."""
    if not sizes:
        raise PreconditionError("sizes must name at least one size")
    vocab = vocab or Vocabulary.of_formula(*phi, *psi)
    plans = [compile_formula(f) for f in (*phi, *psi)]
    checked = 0
    for interp, values in _valued(plans, semiring, vocab, sizes, value_set, guard):
        checked += 1
        if not semiring.leq(semiring.prod(values[:len(phi)]), semiring.prod(values[len(phi):])):
            return EntailmentVerdict(False, interp, checked)
    return EntailmentVerdict(True, None, checked)


@dataclass
class S3Verdict:
    consistent: bool
    witness: Optional[Interpretation]
    checked: int

    def __bool__(self):
        return self.consistent


def s3_entailment(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    sizes: Sequence[int] = (1, 2, 3),
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> S3Verdict:
    """The lattice-entailment criterion: every S3 interpretation giving the
    premises value 1 must give the conclusions value 1.  A refutation
    transfers to every lattice semiring other than the Boolean.  The sizes
    may not be empty."""
    if not sizes:
        raise PreconditionError("sizes must name at least one size")
    vocab = vocab or Vocabulary.of_formula(*phi, *psi)
    phi_plans = [compile_formula(f) for f in phi]
    psi_plans = [compile_formula(f) for f in psi]
    checked = 0
    for interp, values in _valued(phi_plans, S3, vocab, sizes, S3_VALUES, guard):
        checked += 1
        if S3.prod(values) == S3.one and S3.prod(run_plan(p, interp) for p in psi_plans) != S3.one:
            return S3Verdict(False, interp, checked)
    return S3Verdict(True, None, checked)


def s3_equivalence(
    phi: Sequence[Formula],
    psi: Sequence[Formula],
    sizes: Sequence[int] = (1, 2, 3),
    vocab: Optional[Vocabulary] = None,
    guard: int = 10**6,
) -> S3Verdict:
    vocab = vocab or Vocabulary.of_formula(*phi, *psi)
    forward = s3_entailment(phi, psi, sizes, vocab, guard)
    if not forward:
        return forward
    backward = s3_entailment(psi, phi, sizes, vocab, guard)
    if not backward:
        return backward
    return S3Verdict(True, None, forward.checked + backward.checked)


def lift_counterexample_to_s3(
    lattice: FiniteLattice,
    pa: Interpretation,
    pb: Interpretation,
    sentences: Sequence[Formula],
) -> Tuple[Interpretation, Interpretation]:
    """Turn a lattice counterexample to extension preservation into an S3
    counterexample: adjoin a bottom, move the zero values onto it, find a
    weakly separating homomorphism for the two valuations, and compose."""
    if not is_subinterpretation(pa, pb):
        raise PreconditionError("pa must be a subinterpretation of pb")
    sr = pa.semiring
    if not isinstance(sr, LatticeSemiring):
        raise PreconditionError("interpretations must live over a lattice semiring")
    va = evaluate_set(pa, sentences)
    vb = evaluate_set(pb, sentences)
    if sr.leq(va, vb):
        raise PreconditionError("the pair does not refute extension preservation")
    starred, h_star = adjoin_bottom(lattice)
    sr_star = h_star.source
    new_bottom = starred.bottom
    pa_star, pb_star = (_mapped(p, sr_star, lambda v: new_bottom if v == sr.zero else v)
                        for p in (pa, pb))
    s = evaluate_set(pa_star, sentences)
    t = evaluate_set(pb_star, sentences)
    if sr_star.leq(s, t):
        raise PreconditionError("starred valuations unexpectedly ordered")
    h = find_weakly_separating_hom(starred, s, t, semiring=sr_star)
    if h is None:
        raise PreconditionError("no weakly separating homomorphism found")
    qa = compose_hom(h, pa_star)
    qb = compose_hom(h, pb_star)
    wa = evaluate_set(qa, sentences)
    wb = evaluate_set(qb, sentences)
    if not (S3.leq(wb, wa) and wa != wb):
        raise PreconditionError("lifted pair fails to certify the violation")
    return qa, qb
