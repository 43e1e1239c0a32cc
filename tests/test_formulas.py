"""Formula AST, parser, metrics, and syntactic transformations."""

import random

import pytest

from corpus import UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog.errors import PreconditionError
from semlog.evaluation import evaluate
from semlog.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Or,
    assemble_prenex_dnf,
    canonical_bound_names,
    dedupe_or_idempotent,
    existential_prenex_dnf,
    flatten_sigma1,
    fo_to_foneq,
    foneq_to_fo,
    free_vars,
    is_fo,
    is_foneq,
    is_sentence,
    metrics,
    psi_n,
    simplify_constants,
    subformulas,
    substitute,
    substitute_subformula,
)
from semlog.interpretations import enumerate_interpretations, random_interpretation
from semlog.parser import ParseError, parse, render
from semlog.preservation import S3_VALUES, VITERBI_GRID
from semlog.semirings import S3, VITERBI


def all_s3(vocab, sizes=(1, 2, 3)):
    for n in sizes:
        yield from enumerate_interpretations(S3, vocab, n, S3_VALUES)


def s3_equal(f, g, vocab, sizes=(1, 2, 3)):
    return all(evaluate(pi, f) == evaluate(pi, g) for pi in all_s3(vocab, sizes))


# -- parser ------------------------------------------------------------------


def test_parse_basic_shapes():
    f = parse("E x. A y. R(x)")
    assert f == Exists("x", Forall("y", Atom("R", ("x",))))
    g = parse("~(R(x) & Q(x))")
    assert g == Or(Atom("R", ("x",), False), Atom("Q", ("x",), False))
    h = parse("E! z. R(z)")
    assert h == Exists("z", Atom("R", ("z",)), distinct=True)
    assert is_foneq(h) and is_fo(f)


def test_parse_precedence_and_quantifier_scope():
    f = parse("R(x) & Q(x) | S(x)")
    assert isinstance(f, Or) and isinstance(f.left, And)
    g = parse("R(x) | A y. Q(y) & S(y)")
    assert isinstance(g, Or) and isinstance(g.right, Forall)
    assert isinstance(g.right.body, And)


def test_parse_equalities_and_negation_push():
    assert parse("x = y") == Eq("x", "y", True)
    assert parse("x != y") == Eq("x", "y", False)
    assert parse("~(x = y)") == Eq("x", "y", False)
    assert parse("~E x. R(x)") == Forall("x", Atom("R", ("x",), False))
    assert parse("~~R(x)") == Atom("R", ("x",))
    assert parse("~true") == FALSE


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("E x R(x)")
    with pytest.raises(ParseError, match="line 1"):
        parse("R(x) &")
    with pytest.raises(ParseError):
        parse("R(x,)")


def test_arity_checked_against_vocabulary():
    with pytest.raises(PreconditionError, match="arity"):
        parse("R(x, y)", vocabulary=UNARY_R)


def test_render_parse_round_trip():
    rng = random.Random(1)
    texts = [
        "E x. A y. R(x)",
        "(A! x. R(x)) | E! x. R(x)",
        "R(x) | (Q(x) | S(x))",
        "R(x) & (Q(x) & S(x))",
        "A x. (R(x) | ~R(x))",
        "E x. (x = x & ~Q(x))",
    ]
    for text in texts:
        f = parse(text)
        assert parse(render(f)) == f
    for _ in range(50):
        f = random_foneq_sentence(rng)
        assert parse(render(f)) == f


# -- metrics -----------------------------------------------------------------


def test_metrics_examples():
    assert metrics(parse("E x. R(x)")).size == 2
    m = metrics(parse("A! y. E! z. (R(z) & Q(y))"))
    assert m.qr == 2 and m.qr_forall == 1
    m2 = metrics(parse("E x. A y. R(x)"))
    assert m2.qr_forall <= m2.qr <= m2.size


# -- substitution ------------------------------------------------------------


def test_substitute_capture_avoiding():
    f = parse("E y. R(x)")  # x free
    g = substitute(f, {"x": "y"})
    # the bound y must be renamed so the free y is not captured
    assert isinstance(g, Exists) and g.var != "y"
    assert free_vars(g) == {"y"}


def test_fresh_names_do_not_depend_on_earlier_calls():
    f = parse("E y. R(x, y)")
    renamed = substitute(f, {"x": "y"})
    assert renamed == substitute(f, {"x": "y"})
    assert render(renamed) == "E y_1. R(y, y_1)"
    g = parse("(E x. R(x)) | E x. Q(x)")
    assert flatten_sigma1(g) == flatten_sigma1(g)


def test_substitute_subformula_and_errors():
    host = parse("E! x. A! y. R(x)")
    out = substitute_subformula(host, (0,), TRUE)
    assert out == Exists("x", TRUE, distinct=True)
    with pytest.raises(PreconditionError, match="invalid path"):
        substitute_subformula(host, (0, 0, 0, 0), TRUE)
    with pytest.raises(PreconditionError, match="capture"):
        substitute_subformula(host, (0, 0), Atom("R", ("z",)))
    # replacement may use variables visible at the path
    ok = substitute_subformula(host, (0, 0), Atom("R", ("y",)))
    assert isinstance(ok.body.body, Atom)


# -- FO <-> FO-distinct ------------------------------------------------------


def test_fo_to_foneq_shapes():
    # one visible free variable: split into the duplicate instantiation plus
    # the distinct quantifier
    f = Exists("y", Atom("R", ("x", "y")))
    out = fo_to_foneq(Forall("x", f))
    assert isinstance(out, Forall) and out.distinct
    inner = out.body
    assert inner == Or(
        Atom("R", ("x", "x")),
        Exists("y", Atom("R", ("x", "y")), distinct=True),
    )


def test_foneq_to_fo_guards():
    f = Exists("y", Atom("E", ("x", "y")), distinct=True)
    host = Exists("x", f, distinct=True)
    out = foneq_to_fo(host)
    assert isinstance(out.body, Exists)
    guard = out.body.body
    assert isinstance(guard, And) and guard.left == Eq("y", "x", False)


@pytest.mark.parametrize(
    "text",
    [
        "E x. R(x)",
        "E x. A y. R(x)",
        "A x. (R(x) | ~R(x))",
        "E x. E y. (R(x) & Q(y))",
        "A x. E y. (R(x) | Q(y))",
    ],
)
def test_fo_foneq_round_trip_preserves_s3_semantics(text):
    f = parse(text)
    g = fo_to_foneq(f)
    assert is_foneq(g)
    h = foneq_to_fo(g)
    assert is_fo(h)
    assert s3_equal(f, g, UNARY_RQ)
    assert s3_equal(f, h, UNARY_RQ)


def test_fo_foneq_on_viterbi_grids():
    rng = random.Random(2)
    f = parse("E x. A y. (R(x) | Q(y))")
    g = fo_to_foneq(f)
    for _ in range(100):
        pi = random_interpretation(VITERBI, UNARY_RQ, rng.randrange(1, 4), VITERBI_GRID, rng)
        assert evaluate(pi, f) == evaluate(pi, g)


# -- psi_n -------------------------------------------------------------------


def test_psi_n_shape_is_existential():
    f = parse("E x. A y. R(x)")
    p2 = psi_n(f, 2)
    assert is_sentence(p2)
    quantifiers = [g for g in subformulas(p2) if isinstance(g, (Exists, Forall))]
    assert len(quantifiers) == 2 and all(isinstance(q, Exists) for q in quantifiers)
    # the matrix is the distinct-pair guard plus the two-fold unfolding
    body = p2.body.body
    assert body == And(
        Eq("u1", "u2", positive=False),
        Or(
            And(Atom("R", ("u1",)), Atom("R", ("u1",))),
            And(Atom("R", ("u2",)), Atom("R", ("u2",))),
        ),
    )
    with pytest.raises(PreconditionError):
        psi_n(f, 0)


def test_psi_n_equivalent_at_size_n():
    for text in ["E x. A y. R(x)", "A x. (R(x) | ~R(x))", "E x. E y. (R(x) & Q(y))"]:
        f = parse(text)
        for n in (1, 2):
            pn = psi_n(f, n)
            for pi in all_s3(UNARY_RQ, sizes=(n,)):
                assert evaluate(pi, f) == evaluate(pi, pn)


def test_psi_n_is_sup_over_size_n_subinterpretations():
    f = parse("E x. A y. R(x)")
    p2 = psi_n(f, 2)
    import itertools

    for pi in all_s3(UNARY_R, sizes=(3,)):
        expected = S3.sum(
            evaluate(pi.restrict(sub), f)
            for sub in itertools.combinations(pi.universe, 2)
        )
        assert evaluate(pi, p2) == expected


# -- flatten -----------------------------------------------------------------


def test_flatten_sigma1_examples():
    f = Or(parse("E x. R(x)"), parse("E y. Q(y)"))
    out = flatten_sigma1(f)
    # single prenex block
    node, prefix = out, 0
    while isinstance(node, Exists):
        prefix += 1
        node = node.body
    assert prefix == 2
    assert not any(isinstance(g, (Exists, Forall)) for g in subformulas(node))
    assert s3_equal(f, out, UNARY_RQ)

    g = And(parse("E x. R(x)"), parse("E y. Q(y)"))
    assert s3_equal(g, flatten_sigma1(g), UNARY_RQ)

    single = parse("E x. R(x)")
    assert flatten_sigma1(single) == single


def test_flatten_rejects_universals():
    with pytest.raises(PreconditionError):
        flatten_sigma1(parse("A x. R(x)"))


# -- existential prenex DNF --------------------------------------------------


def test_dnf_base_case():
    zs, ds = existential_prenex_dnf(parse("R(x) | Q(x)"))
    assert zs == ()
    assert set(ds) == {Atom("R", ("x",)), Atom("Q", ("x",))}


def test_dnf_conjunction_covers_shared_instantiations():
    f = And(
        Exists("z", Atom("R", ("z",)), distinct=True),
        Exists("u", Atom("Q", ("u",)), distinct=True),
    )
    zs, ds = existential_prenex_dnf(f)
    assert len(zs) == 2
    rendered = {render(d) for d in ds}
    # instantiations of u range over both prefix variables
    assert any("Q(w1)" in t for t in rendered)
    assert any("Q(w2)" in t for t in rendered)


def test_dnf_equivalence_at_adequate_sizes():
    rng = random.Random(3)
    cases = [
        parse("R(x) | Q(x)"),
        parse("E! z. (R(z) | Q(z))"),
        Or(Exists("z", Atom("R", ("z",)), distinct=True), Atom("Q", ("x",))),
    ]
    for _ in range(10):
        f = random_foneq_sentence(rng, max_qr=1)
        if not any(isinstance(g, Forall) for g in subformulas(f)):
            cases.append(f)
    for f in cases:
        zs, ds = existential_prenex_dnf(f)
        g = assemble_prenex_dnf(zs, ds)
        lo = len(zs) + len(free_vars(f))
        sizes = [n for n in (1, 2, 3) if n >= lo] or [lo]
        for n in sizes:
            for pi in all_s3(UNARY_RQ, sizes=(n,)):
                env = {v: i + 1 for i, v in enumerate(sorted(free_vars(f)))}
                assert evaluate(pi, f, env) == evaluate(pi, g, env), (render(f), render(g), n)


def test_dnf_rejects_universal():
    with pytest.raises(PreconditionError, match="universal"):
        existential_prenex_dnf(parse("A! x. R(x)"))


# -- misc --------------------------------------------------------------------


def test_simplify_constants_sound_folds_only():
    f = Or(FALSE, Atom("R", ("x",)))
    assert simplify_constants(f) == Atom("R", ("x",))
    g = And(TRUE, Atom("R", ("x",)))
    assert simplify_constants(g) == Atom("R", ("x",))
    # true | R is NOT folded (sum with one differs from one outside absorptive semirings)
    h = Or(TRUE, Atom("R", ("x",)))
    assert simplify_constants(h) == h


def test_canonical_bound_names():
    f = parse("E x. R(x)")
    g = parse("E z. R(z)")
    assert canonical_bound_names(f) == canonical_bound_names(g)
    assert canonical_bound_names(f) != canonical_bound_names(parse("A z. R(z)"))
    # the numbering skips the free v1, so that no binder captures it
    assert canonical_bound_names(parse("E y. S(y, v1)")) == parse("E v2. S(v2, v1)")
    assert canonical_bound_names(parse("E v2. S(v1, v1)")) == parse("E v2. S(v1, v1)")


def test_dedupe_reaches_every_or_chain():
    f = parse("E x. ((R(x) | R(x) | R(x)) & A y. (Q(y) | (E z. Q(z)) | Q(y) | E w. Q(w)))")
    assert dedupe_or_idempotent(f) == parse("E x. (R(x) & A y. (Q(y) | E z. Q(z)))")
    # E y. S(y, v1) and the vacuous E v2. S(v1, v1) are not alpha-equivalent
    g = parse("E v1. ((E y. S(y, v1)) | E v2. S(v1, v1))")
    assert dedupe_or_idempotent(g) == g


def test_transformations_preserve_sentencehood():
    rng = random.Random(4)
    for _ in range(30):
        f = random_foneq_sentence(rng)
        assert is_sentence(f)
        h = foneq_to_fo(f)
        assert is_sentence(h) and is_fo(h)
        back = fo_to_foneq(h)
        assert is_sentence(back) and is_foneq(back)
