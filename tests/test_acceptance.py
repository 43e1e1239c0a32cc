"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import itertools
import random
from fractions import Fraction

from corpus import MIXED, UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog.evaluation import evaluate
from semlog.formulas import (
    Forall,
    canonical_bound_names,
    free_vars,
    metrics,
    psi_n,
    qr,
    subformulas,
)
from semlog.games import (
    build_game_tree,
    enumerate_strategies,
    eval_strategy,
    literal_elements,
    strategy_from_choices,
    translate_strategy,
)
from semlog.interpretations import (
    Interpretation,
    Vocabulary,
    check_interp_hom,
    compose_hom,
    enumerate_interpretations,
    is_subinterpretation,
    random_interpretation,
)
from semlog.lattices import LatticeSemiring, chain_lattice
from semlog.parser import parse
from semlog.polynomials import (
    NATPOLY,
    SPOLY,
    AbsorptivePoly,
    Monomial,
    NatPoly,
    absorbs,
    lit_var,
)
from semlog.preservation import (
    S3_VALUES,
    VITERBI_GRID,
    check_preservation,
    is_trivial_at,
    lift_counterexample_to_s3,
    rewrite_sigma1_lattice,
    rewrite_sigma1_strict,
)
from semlog.provenance import assignment_from_interpretation, pi_n, specialization_hom
from semlog.semirings import (
    DOUBT,
    FUZZY,
    LUKASIEWICZ,
    NAT,
    NATINF,
    S3,
    TROPICAL,
    VITERBI,
    s3_embedding,
    threshold_hom,
)

DOUBT_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


def report(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_viterbi_extension_counterexample():
    psi = parse("E x. A y. R(x)")
    pi1 = Interpretation.from_atoms(VITERBI, (1,), UNARY_R, {("R", (1,)): Fraction(1, 2)})
    pi2 = Interpretation.from_atoms(
        VITERBI, (1, 2), UNARY_R,
        {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2)},
    )
    assert evaluate(pi1, psi) == Fraction(1, 2)
    assert evaluate(pi2, psi) == Fraction(1, 4)
    assert is_subinterpretation(pi1, pi2)
    verdict = check_preservation(psi, VITERBI, "extensions", 2, VITERBI_GRID)
    assert verdict.refuted
    pa, pb, _ = verdict.witness
    assert len(pa.universe) == 1 and len(pb.universe) == 2
    assert is_subinterpretation(pa, pb)
    va, vb = evaluate(pa, psi), evaluate(pb, psi)
    assert not VITERBI.leq(va, vb)
    report(1, f"eval 1/2 vs 1/4 exact; checker refuted with sizes 1->2 witness")


# -- 2 ------------------------------------------------------------------------


def test_criterion_2_nat_polynomial_counterexample():
    psi = parse("E x. A y. R(x)")
    phi = parse("E x. E y. (R(x) & R(y))")
    degrees_phi = []
    for n in range(1, 6):
        interp = pi_n(UNARY_R, n, "nat")
        value = evaluate(interp, psi)
        collapse = {}
        for i in range(1, n + 1):
            collapse[lit_var("R", (i,), True)] = NatPoly.var("x")
            collapse[lit_var("R", (i,), False)] = NatPoly.zero()
        h = specialization_hom(collapse, NATPOLY, NATPOLY)
        assert h(value) == NatPoly(((Monomial.var("x", n), n),)), n
        degrees_phi.append(evaluate(interp, phi).degree())
    assert degrees_phi == [2] * 5
    report(2, "pi_n value n*x^n for n=1..5; sigma1 degree constant at 2")


# -- 3 ------------------------------------------------------------------------


def _acceptance_corpus(count=50):
    rng = random.Random(101)
    corpus = [
        parse("E! x. R(x)"),
        parse("A! x. R(x)"),
        parse("A! y. E! z. R(z)"),
        parse("(A! x. R(x)) | E! x. R(x)"),
        parse("(A! x. R(x)) & E! x. R(x)"),
        parse("E! x. E! y. E(x, y)"),
        parse("A! x. E! y. E(x, y)"),
    ]
    while len(corpus) < count - 3:
        corpus.append(random_foneq_sentence(rng, UNARY_RQ, max_qr=2))
    while len(corpus) < count:
        corpus.append(random_foneq_sentence(rng, MIXED, max_qr=2))
    return corpus


def test_criterion_3_sum_of_strategies():
    corpus = _acceptance_corpus(50)
    assert len(corpus) >= 50
    rng = random.Random(103)
    pairs = 0
    for psi in corpus:
        assert qr(psi) <= 2
        vocab = Vocabulary.of_formula(psi)
        assert len(vocab.relations) <= 2
        for n in (1, 2):
            for pi in enumerate_interpretations(S3, vocab, n, S3_VALUES):
                tree = build_game_tree(psi, pi.universe)
                total = S3.sum(eval_strategy(pi, s) for s in enumerate_strategies(tree))
                assert total == evaluate(pi, psi), (psi, pi)
                pairs += 1
        for _ in range(2):
            m = rng.randrange(1, 4)
            pv = random_interpretation(VITERBI, vocab, m, VITERBI_GRID, rng)
            tree = build_game_tree(psi, pv.universe)
            total = VITERBI.sum(eval_strategy(pv, s) for s in enumerate_strategies(tree))
            assert total == evaluate(pv, psi), (psi, pv)
            pairs += 1
    report(3, f"eval = sum over strategies on {pairs} (sentence, interpretation) pairs")


# -- 4 ------------------------------------------------------------------------

FP_CORPUS = [
    "E x. R(x)",
    "A x. R(x)",
    "E x. A y. R(x)",
    "A x. (R(x) | ~R(x))",
    "E x. E y. (R(x) & Q(y))",
    "A x. E y. (R(x) | Q(y))",
    "E! x. (R(x) | A! y. Q(y))",
]


def test_criterion_4_fundamental_property():
    formulas = [parse(t) for t in FP_CORPUS]
    checks = 0
    for kind in ("geq_eps", "geq_one"):
        h = threshold_hom(kind)
        for n in (1, 2):
            for pi in enumerate_interpretations(S3, UNARY_RQ, n, S3_VALUES):
                image = compose_hom(h, pi, require_model_defining=False)
                for f in formulas:
                    assert evaluate(image, f) == h(evaluate(pi, f))
                    checks += 1
    embed = s3_embedding(FUZZY)
    for n in (1, 2):
        for pi in enumerate_interpretations(S3, UNARY_RQ, n, S3_VALUES):
            image = compose_hom(embed, pi)
            for f in formulas:
                assert evaluate(image, f) == embed(evaluate(pi, f))
                checks += 1
    rng = random.Random(107)
    specializations = 0
    while specializations < 50:
        target, grid = rng.choice(
            [(VITERBI, VITERBI_GRID), (S3, S3_VALUES), (FUZZY, VITERBI_GRID),
             (LUKASIEWICZ, VITERBI_GRID)]
        )
        n = rng.randrange(1, 3)
        concrete = random_interpretation(target, UNARY_RQ, n, grid, rng)
        pin = pi_n(UNARY_RQ, n, "absorptive")
        h = specialization_hom(assignment_from_interpretation(concrete), SPOLY, target)
        for f in formulas:
            assert h(evaluate(pin, f)) == evaluate(concrete, f)
            checks += 1
        specializations += 1
    report(4, f"h(eval) = eval(h o pi) exactly on {checks} checks, 50 specializations")


# -- 5 ------------------------------------------------------------------------


def test_criterion_5_fragment_preservation_properties():
    from corpus import (
        random_extension_pair,
        random_hom_pair,
        random_pi1_sentence,
        random_sigma1_sentence,
    )

    all_specs = [
        (S3, S3_VALUES),
        (VITERBI, VITERBI_GRID),
        (LUKASIEWICZ, VITERBI_GRID),
        (DOUBT, DOUBT_GRID),
        (FUZZY, VITERBI_GRID),
        (NAT, (1, 2, 3)),
        (NATINF, (1, 2)),
        (TROPICAL, (Fraction(1), Fraction(2))),
    ]
    absorptive_specs = [p for p in all_specs if p[0].absorptive]
    rng = random.Random(109)
    trials = 10_000

    for _ in range(trials):
        sr, grid = rng.choice(all_specs)
        f = random_sigma1_sentence(rng)
        pa, pb = random_extension_pair(rng, sr, UNARY_RQ, grid)
        assert sr.leq(evaluate(pa, f), evaluate(pb, f)), (sr.id, f)
    for _ in range(trials):
        sr, grid = rng.choice(absorptive_specs)
        f = random_pi1_sentence(rng)
        pa, pb = random_extension_pair(rng, sr, UNARY_RQ, grid)
        assert sr.leq(evaluate(pb, f), evaluate(pa, f)), (sr.id, f)
    for _ in range(trials):
        sr, grid = rng.choice(all_specs)
        f = random_sigma1_sentence(rng, positive_only=True, with_equalities=False)
        pa, pb, g = random_hom_pair(rng, sr, UNARY_RQ, grid)
        assert check_interp_hom(g, pa, pb) != "none"
        assert sr.leq(evaluate(pa, f), evaluate(pb, f)), (sr.id, f)
    report(5, f"3 x {trials} randomized monotonicity trials, no violation")


# -- 6 ------------------------------------------------------------------------

PSI_N_CORPUS = [
    "E x. R(x)",
    "A x. R(x)",
    "E x. A y. R(x)",
    "A x. E y. R(y)",
    "A x. (R(x) | ~R(x))",
    "E x. (R(x) & ~R(x))",
    "E x. E y. (R(x) & R(y))",
    "E x. A y. (R(x) | R(y))",
    "A x. A y. (R(x) | R(y))",
    "E x. (R(x) | A y. R(y))",
    "E x. R(x)",
    "E x. Q(x)",
    "E x. (R(x) & Q(x))",
    "A x. (R(x) | Q(x))",
    "E x. A y. (R(x) & Q(y))",
    "A x. E y. (Q(y) | R(x))",
    "E x. E y. (R(x) | Q(y))",
    "A x. A y. (R(x) & Q(y))",
    "E x. (Q(x) | ~R(x))",
    "A x. (Q(x) & R(x))",
]


def test_criterion_6_psi_n_correctness():
    sentences = [parse(t) for t in PSI_N_CORPUS]
    assert len(sentences) == 20
    for f in sentences:
        vocab = Vocabulary.of_formula(f)
        heavy = len(vocab.relations) > 1
        for n in (1, 2, 3):
            if heavy and n == 3:
                continue  # 4^6 interpretations; size-3 covered by unary-R half
            pn = psi_n(f, n)
            for pi in enumerate_interpretations(S3, vocab, n, S3_VALUES):
                assert evaluate(pi, f) == evaluate(pi, pn), (f, n)
    # size-n unfolding evaluates to the sup over size-n subinterpretations
    for text in ("E x. A y. R(x)", "A x. R(x)", "E x. (R(x) | A y. R(y))"):
        f = parse(text)
        p2 = psi_n(f, 2)
        for pi in enumerate_interpretations(S3, UNARY_R, 3, S3_VALUES):
            expected = S3.sum(
                evaluate(pi.restrict(sub), f)
                for sub in itertools.combinations(pi.universe, 2)
            )
            assert evaluate(pi, p2) == expected
    report(6, "psi ==_n psi_n exhaustive over S3 for 20 sentences; sup law at size 3")


# -- 7 ------------------------------------------------------------------------

TRIVIALITY_CORPUS = [
    "A! x. E! y. (true | R(x))",   # trivial for n >= 2 only
    "E! x. (R(x) | ~R(x))",        # never trivial
    "A! y. (R(y) | ~R(y))",
    "A! y. E! z. (R(z) | ~R(z))",
    "A! y. (true | Q(y))",
    "E! x. true",
    "A! y. R(x)",
    "A! y. (R(x) | ~R(x))",
    "E! y. (Q(x) | ~Q(x))",
    "A! y. (Q(y) | ~Q(x))",
    "A! y. (Q(y) & true)",
    "A! y. (Q(y) | true)",
    "E! y. (Q(y) & R(y))",
    "A! y. E! z. (Q(z) | ~Q(z))",
    "A! y. A! z. (R(y) | ~R(z))",
    "E! y. E! z. (R(y) | ~R(z))",
    "A! x. (R(x) | (Q(x) | ~R(x)))",
    "A! x. (R(x) & (Q(x) | ~Q(x)))",
    "E! x. (true & R(x))",
    "A! x. E! y. (R(y) | ~R(y))",
    "A! x. E! y. (R(x) | true)",
    "E! x. A! y. (true | Q(y))",
    "A! x. (true | ~R(x))",
    "E! x. ~R(x)",
    "A! x. ~R(x)",
    "A! x. (Q(x) | ~Q(x))",
    "E! x. (Q(x) | R(x))",
    "A! y. (R(y) | Q(y))",
    "A! y. E! z. (R(z) | Q(y))",
    "E! y. A! z. (R(y) | ~R(y))",
]


def test_criterion_7_triviality_oracle():
    from test_preservation import brute_force_trivial

    assert len(TRIVIALITY_CORPUS) >= 30
    f1 = parse(TRIVIALITY_CORPUS[0])
    assert not is_trivial_at(f1, 1) and is_trivial_at(f1, 2) and is_trivial_at(f1, 3)
    f2 = parse(TRIVIALITY_CORPUS[1])
    assert not any(is_trivial_at(f2, n) for n in (1, 2, 3, 4, 5, 8))
    agreements = 0
    for text in TRIVIALITY_CORPUS:
        f = parse(text)
        lo = len(free_vars(f)) + 1
        for n in (1, 2, 3):
            if n < lo:
                continue
            assert is_trivial_at(f, n) == brute_force_trivial(f, n), (text, n)
            agreements += 1
    report(7, f"picked-instantiation test matches brute force on {agreements} cases")


# -- 8 ------------------------------------------------------------------------


def test_criterion_8_strategy_translation():
    rng = random.Random(113)
    shapes = [
        "E! x. A! y. R(x)",
        "E! x. (true | A! y. R(x))",
        "E! x. (R(x) | A! y. R(x))",
        "E! x. A! y. (R(x) | R(y))",
        "E! x. (R(x) & A! y. R(x))",
    ]
    done = 0
    per_forall_checks = 0
    trees = {}
    for text in itertools.cycle(shapes):
        if done >= 200:
            break
        psi = parse(text)
        m = metrics(psi)
        r = m.qr
        n = 2 ** (m.size + 1) + r + 1
        big = n + r + 1
        if text not in trees:
            trees[text] = (
                build_game_tree(psi, big),
                pi_n(UNARY_R, big, "absorptive"),
                pi_n(UNARY_R, n + r, "absorptive"),
            )
        tree, pin_big, pin_small = trees[text]

        def chooser(node):
            k = len(node.children)
            if k > 2 and rng.random() < 0.8:
                return rng.randrange(2)
            return rng.randrange(k)

        strat = strategy_from_choices(tree.root, chooser)
        if any(e > n for e in literal_elements(strat)):
            continue
        before = eval_strategy(pin_big, strat)
        tstar, dropped = translate_strategy(strat, n, r)
        after = eval_strategy(pin_small, tstar)
        assert SPOLY.leq(before, after), text
        from semlog.games import strategy_nodes

        n_forall = sum(1 for node in strategy_nodes(strat) if node.kind == "forall")
        assert len(dropped) == n_forall  # one witness branch per forall node
        for v, w in dropped:
            assert SPOLY.leq(before, SPOLY.mul(after, eval_strategy(pin_big, w))), text
            per_forall_checks += 1
        done += 1
    report(8, f"200 translations: absorption-order and {per_forall_checks} product inequalities")


# -- 9 ------------------------------------------------------------------------

STRICT_REWRITE_CORPUS = [
    ("(A! x. R(x)) | E! x. R(x)", VITERBI),
    ("(A! x. R(x)) | E! x. R(x)", LUKASIEWICZ),
    ("E x. R(x)", VITERBI),
    ("E x. (R(x) & Q(x))", LUKASIEWICZ),
    ("E x. E y. (R(x) | Q(y))", VITERBI),
    ("(A! y. E! z. (true | R(y))) | E! x. R(x)", VITERBI),
    ("(A! x. Q(x)) | E! x. (R(x) | Q(x))", VITERBI),
    ("(A! x. Q(x)) | E! x. (R(x) | Q(x))", LUKASIEWICZ),
    ("((A! x. R(x)) | E! x. R(x)) & E! y. Q(y)", VITERBI),
    ("E! x. (R(x) | A! y. R(y))", LUKASIEWICZ),
]


def test_criterion_9_rewriting_strict():
    assert len(STRICT_REWRITE_CORPUS) == 10
    for text, sr in STRICT_REWRITE_CORPUS:
        psi = parse(text)
        rep = rewrite_sigma1_strict(psi, sr)
        assert not rep.gate.refuted, text
        assert rep.ok, (text, sr.id, rep.summary())
        assert not any(isinstance(g, Forall) for g in subformulas(rep.output))
        assert rep.verification.ok
    report(9, "10 extension-preserved sentences rewritten to verified sigma1 form")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_rewriting_lattice():
    r1 = rewrite_sigma1_lattice(parse("A y. E z. R(z)"))
    assert r1.ok
    assert canonical_bound_names(r1.output) == canonical_bound_names(parse("E z. R(z)"))
    r2 = rewrite_sigma1_lattice(parse("A y. ((E z. R(z)) | E z. (R(z) & Q(y)))"))
    assert r2.ok
    assert canonical_bound_names(r2.output) == canonical_bound_names(parse("E z. R(z)"))
    for rep in (r1, r2):
        assert rep.verification.ok
    report(10, "lattice pipeline maps both worked examples onto E z. R(z), verified")


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_absorptive_polynomial_algebra():
    rng = random.Random(127)
    lits = [lit_var("R", (i,), pos) for i in (1, 2, 3) for pos in (True, False)]
    names = ["u", "v", "w"]

    def rand_poly():
        ms = []
        for _ in range(rng.randrange(0, 4)):
            pool = rng.sample(names + lits, rng.randrange(1, 4))
            ms.append(Monomial((v, rng.randrange(1, 4)) for v in pool))
        return AbsorptivePoly(ms)

    def antichain(p):
        return all(
            not (absorbs(m1, m2) and m1 != m2)
            for m1 in p.monomials
            for m2 in p.monomials
        )

    ops = 0
    while ops < 10_000:
        a, b = rand_poly(), rand_poly()
        s = a.add(b)
        p = a.mul(b)
        assert antichain(s) and antichain(p)
        assert a.add(a.mul(b)) == a  # absorption law
        ops += 2
    x = AbsorptivePoly.var(lit_var("R", (1,), True))
    nx = AbsorptivePoly.var(lit_var("R", (1,), False))
    assert x.mul(nx) == SPOLY.zero
    report(11, "antichain invariant over 10^4 ops; s + s*t = s; dual-pair quotient")


# -- 12 -----------------------------------------------------------------------


def test_criterion_12_s3_lifting():
    lat = chain_lattice(["0", "a", "b", "1"])
    sr = LatticeSemiring(lat)
    psi = parse("A x. (R(x) | ~R(x))")
    pa = Interpretation.from_atoms(sr, (1,), UNARY_R, {("R", (1,)): "1"})
    pb = Interpretation.from_atoms(
        sr, (1, 2), UNARY_R, {("R", (1,)): "1", ("R", (2,)): "a"}
    )
    assert is_subinterpretation(pa, pb)
    assert not sr.leq(evaluate(pa, psi), evaluate(pb, psi))
    qa, qb = lift_counterexample_to_s3(lat, pa, pb, [psi])
    assert qa.semiring is S3 and qb.semiring is S3
    assert is_subinterpretation(qa, qb)
    wa, wb = evaluate(qa, psi), evaluate(qb, psi)
    assert S3.lt(wb, wa)
    assert qa.is_model_defining() and qb.is_model_defining()
    report(12, f"4-chain counterexample lifted to S3 with {S3.format_value(wa)} > {S3.format_value(wb)}")
