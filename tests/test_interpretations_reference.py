"""Differential test: the interpretation builders that now share
`_literal_pair` and `_mapped` against the frozen copies in
reference_interpretations.py.  Tables (with the type of every value),
defaults, universes, names and raised exception types must agree; the S3
lift, whose `star_of` stored every atom and dropped the names, must give the
same lifted values."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_interpretations as ref
from corpus import BINARY_E, MIXED, UNARY_R, UNARY_RQ, random_foneq_sentence
from semlog.evaluation import evaluate
from semlog.interpretations import (
    Interpretation,
    check_interp_hom,
    compose_hom,
    parse_interpretation,
)
from semlog.lattices import LatticeSemiring, chain_lattice, diamond_lattice
from semlog.parser import parse
from semlog.preservation import lift_counterexample_to_s3
from semlog.semirings import (
    BOOLEAN,
    FUZZY,
    NAT,
    NATINF,
    S3,
    TROPICAL,
    VITERBI,
    ChainSemiring,
    s3_embedding,
    semiring_from_id,
    threshold_hom,
)

SEMIRINGS = [BOOLEAN, S3, ChainSemiring(4), FUZZY, VITERBI, TROPICAL, NAT, NATINF,
             LatticeSemiring(diamond_lattice())]
SEMIRING_IDS = ["boolean", "s3", "chain:4", "fuzzy", "viterbi", "tropical", "nat", "natinf"]
VOCABS = [UNARY_R, UNARY_RQ, BINARY_E, MIXED]
# tokens valid in some carriers and not in others, zero in most
VALUE_TEXTS = ["0", "1", "2", "1/2", "1/4", "e", "inf", "true", "false", "zz", "1/0", "-1"]
# values outside every carrier, or outside most
FOREIGN = ["zz", 5, Fraction(3, 2), -1, None]


def _typed(v):
    return type(v).__name__, repr(v)


def _snapshot(interp):
    return (
        interp.semiring.id,
        interp.universe,
        interp.vocab,
        [(key, tuple(map(_typed, pair))) for key, pair in interp.table.items()],
        tuple(map(_typed, interp.default)),
        interp.names,
    )


def _outcome(fn, *args):
    try:
        return "built", _snapshot(fn(*args))
    except Exception as exc:  # the type is compared, whichever it is
        return "raised", type(exc)


def _value(rng, sr):
    """A carrier value (zero about one time in four, written in the carrier's
    type or another one) or, rarely, a foreign one."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(FOREIGN)
    if roll < 0.35:
        return rng.choice((sr.zero, 0, Fraction(0)))
    return sr.random_value(rng)


def _random_interp(rng, sr, vocab):
    """A table-built interpretation with arbitrary pairs (not necessarily
    model-defining) and an arbitrary default."""
    universe = tuple(range(1, rng.randrange(1, 4)))
    table = {key: (sr.random_value(rng), sr.random_value(rng))
             for key in vocab.atoms(universe) if rng.random() < 0.6}
    default = rng.choice([None, (sr.random_value(rng), sr.random_value(rng))])
    names = {e: f"e{e}" for e in universe} if rng.random() < 0.5 else None
    return Interpretation(sr, universe, vocab, table, default, names)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(SEMIRINGS), st.sampled_from(VOCABS))
def test_from_atoms_agrees_with_the_reference(seed, sr, vocab):
    rng = random.Random(seed)
    universe = tuple(range(1, rng.randrange(1, 4)))
    values = {key: _value(rng, sr) for key in vocab.atoms(universe) if rng.random() < 0.7}
    names = rng.choice([None, {e: chr(96 + e) for e in universe}])
    assert (_outcome(Interpretation.from_atoms, sr, universe, vocab, values, names)
            == _outcome(ref.from_atoms, sr, universe, vocab, values, names))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(SEMIRINGS), st.sampled_from(VOCABS),
       st.integers(0, 2))
def test_pad_agrees_with_the_reference(seed, sr, vocab, count):
    rng = random.Random(seed)
    interp = _random_interp(rng, sr, vocab)
    fill = _value(rng, sr)
    assert _outcome(interp.pad, count, fill) == _outcome(ref.pad, interp, count, fill)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(SEMIRINGS), st.sampled_from(VOCABS))
def test_with_values_agrees_with_the_reference(seed, sr, vocab):
    rng = random.Random(seed)
    interp = _random_interp(rng, sr, vocab)
    c = sr.random_value(rng)
    replace = rng.choice([
        lambda v: sr.mul(v, c),
        lambda v: sr.add(v, c),
        lambda v: c,
        lambda v: "zz",  # leaves the carrier: both raise
    ])
    assert _outcome(interp.with_values, replace) == _outcome(ref.with_values, interp, replace)


HOMS = [threshold_hom("geq_eps"), threshold_hom("geq_one"), s3_embedding(FUZZY),
        s3_embedding(ChainSemiring(4)), s3_embedding(LatticeSemiring(diamond_lattice()))]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(HOMS), st.sampled_from(VOCABS), st.booleans())
def test_compose_hom_agrees_with_the_reference(seed, h, vocab, require):
    rng = random.Random(seed)
    # mostly S3, sometimes the wrong source; pairs of both kinds, so the image
    # is sometimes not model-defining
    interp = _random_interp(rng, S3 if rng.random() < 0.9 else FUZZY, vocab)
    assert (_outcome(compose_hom, h, interp, require)
            == _outcome(ref.compose_hom, h, interp, require))


LINE = st.one_of(
    st.tuples(st.booleans(), st.sampled_from(["R", "Q"]),
              st.lists(st.sampled_from(["a", "b", "c", "z"]), min_size=1, max_size=2),
              st.sampled_from(VALUE_TEXTS)).map(
        lambda t: f"{'~' if t[0] else ''}{t[1]}({', '.join(t[2])}) = {t[3]}"),
    st.sampled_from(VALUE_TEXTS).map(lambda v: f"default: {v}"),
    st.just("# a comment"),
    st.just("R(a) 1/2"),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SEMIRING_IDS), st.booleans(),
       st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
       st.lists(LINE, max_size=6))
@example("viterbi", True, ["a", "b"], ["~R(a) = 0", "R(b) = 1/2", "default: 1/4"])
@example("s3", False, ["a"], ["~R(a) = e", "default: 0"])
@example("viterbi", True, ["a"], ["R(a) = zz"])
def test_parse_interpretation_agrees_with_the_reference(sr_id, declared, universe, lines):
    text = "\n".join(([f"semiring: {sr_id}"] if declared else [])
                     + [f"universe: {' '.join(universe)}"] + lines)
    passed = None if declared else semiring_from_id(sr_id)
    assert (_outcome(parse_interpretation, text, passed)
            == _outcome(ref.parse_interpretation, text, passed))


LATTICES = [chain_lattice(["0", "a", "1"]), chain_lattice(["0", "a", "b", "1"]), diamond_lattice()]
SENTENCES = [parse(s) for s in ("A x. (R(x) | ~R(x))", "A x. R(x)", "A x. ~R(x)",
                                "A x. E y. (R(x) | Q(y))", "A x. (R(x) | Q(x))")]


def _lift_case(rng):
    """A lattice, a pair pa <= pb and sentences; pb's last element has R below
    the top, so dropping it often lowers a universal sentence."""
    lattice = rng.choice(LATTICES)
    sr = LatticeSemiring(lattice)
    size = rng.randrange(2, 4)
    universe = tuple(range(1, size + 1))
    values = {key: rng.choice(lattice.elements[1:] + (lattice.top,) * 2)
              for key in UNARY_RQ.atoms(universe)}
    values[("R", (size,))] = rng.choice(lattice.elements[:-1])
    names = rng.choice([None, {e: f"e{e}" for e in universe}])
    pb = Interpretation.from_atoms(sr, universe, UNARY_RQ, values, names)
    pa = pb.restrict(rng.sample(universe[:-1], rng.randrange(1, size)))
    if rng.random() < 0.5:
        sentences = [rng.choice(SENTENCES)]
    else:
        sentences = [random_foneq_sentence(rng) for _ in range(rng.randrange(1, 3))]
    return lattice, pa, pb, sentences


def _lifted(lift, case):
    try:
        qa, qb = lift(*case)
    except Exception as exc:  # the type is compared, whichever it is
        return "raised", type(exc)
    sentences = case[3]
    return "lifted", [(evaluate(qa, f), evaluate(qb, f)) for f in sentences], qa.universe, qb.universe


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_the_s3_lift_agrees_with_the_reference(seed):
    case = _lift_case(random.Random(seed))
    assert _lifted(lift_counterexample_to_s3, case) == _lifted(ref.lift_counterexample_to_s3, case)


def test_the_s3_lift_is_exercised():
    """The random cases above reach the lift itself, not only its guards."""
    outcomes = [_lifted(lift_counterexample_to_s3, _lift_case(random.Random(seed)))
                for seed in range(200)]
    assert sum(o[0] == "lifted" for o in outcomes) >= 20


HOM_SEMIRINGS = [NAT, VITERBI, S3, TROPICAL]


def _hom_case(rng, sr, vocab):
    """Two interpretations of sizes <= 3 and a map between their universes:
    pa is random, or pb pulled back through the map (a strong homomorphism),
    or that pull-back with some values lowered; the map is rarely partial or
    leaves pb's universe."""
    target = tuple(range(1, rng.randrange(2, 5)))
    pb = Interpretation.from_atoms(sr, target, vocab, {
        key: sr.random_value(rng) for key in vocab.atoms(target) if rng.random() < 0.7})
    universe = tuple(range(1, rng.randrange(2, 5)))
    g = {a: rng.choice(target) for a in universe}
    roll = rng.random()
    if roll < 0.05:
        del g[universe[-1]]
    elif roll < 0.1:
        g[universe[0]] = len(target) + 1
    how = rng.choice(("random", "pulled", "lowered"))
    values = {}
    for rel, args in vocab.atoms(universe):
        image = tuple(g.get(a, 0) for a in args)
        if how == "random" or not all(a in target for a in image):
            values[(rel, args)] = sr.random_value(rng)
        elif how == "lowered" and rng.random() < 0.5:
            values[(rel, args)] = sr.mul(pb.literal(rel, image), sr.random_value(rng))
        else:
            values[(rel, args)] = pb.literal(rel, image)
    return g, Interpretation.from_atoms(sr, universe, vocab, values), pb


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(HOM_SEMIRINGS), st.sampled_from(VOCABS))
def test_check_interp_hom_agrees_with_the_reference(seed, sr, vocab):
    """The one-pass preimage sums classify every map as the rescan did."""
    g, pa, pb = _hom_case(random.Random(seed), sr, vocab)

    def outcome(check):
        try:
            return "value", check(g, pa, pb)
        except Exception as exc:  # the type and message are compared
            return "raised", type(exc), str(exc)

    assert outcome(check_interp_hom) == outcome(ref.check_interp_hom)
