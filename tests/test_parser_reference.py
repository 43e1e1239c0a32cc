"""The operator-precedence parser against the frozen recursive-descent
parser (reference_parser.py): on rendered corpus formulas with parentheses
and negations added, and on random token strings, both must return the same
formula or raise a ParseError with the same message, line and column."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from corpus import MIXED, random_foneq_formula, random_pi1_sentence, random_sigma1_sentence
from semlog.formulas import And, Atom, Bottom, Eq, Exists, Or, Top
from semlog.parser import ParseError, _tokenize, parse, render

TOKENS = ("E", "A", "E!", "A!", "~", "(", ")", "&", "|", ".", ",", "=", "!=",
          "true", "false", "R(x)", "Q(x, y)", "x", "y")


def outcome(fn, text):
    try:
        return "formula", fn(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


def check(text, well_formed=False):
    result = outcome(parse, text)
    assert result == outcome(reference_parser.parse, text)
    assert result[0] == "formula" or not well_formed


@st.composite
def corpus_formulas(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("foneq", "sigma1", "pi1")))
    if kind == "sigma1":
        return random_sigma1_sentence(rng, MIXED, draw(st.integers(1, 3)))
    if kind == "pi1":
        return random_pi1_sentence(rng, MIXED, draw(st.integers(1, 3)))
    free = draw(st.sampled_from(((), ("y",))))
    return random_foneq_formula(rng, MIXED, draw(st.integers(1, 3)), free,
                                constants=draw(st.booleans()))


def decorated(f, choose) -> str:
    """f in the concrete syntax, every operand parenthesized, and each
    subformula left alone, parenthesized again or negated as choose() says."""
    if isinstance(f, (Top, Bottom, Atom, Eq)):
        text = repr(f)
    elif isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        text = f"({decorated(f.left, choose)}) {op} ({decorated(f.right, choose)})"
    else:
        q = ("E" if isinstance(f, Exists) else "A") + ("!" if f.distinct else "")
        text = f"{q} {f.var}. {decorated(f.body, choose)}"
    return (text, f"({text})", f"~{text}", f"~ ({text})")[choose()]


@st.composite
def corpus_texts(draw):
    """A rendered corpus formula and whether it is well formed: decorated,
    or with parentheses and negations inserted between tokens, or cut short."""
    f = draw(corpus_formulas())
    mode = draw(st.sampled_from(("decorated", "inserted", "truncated")))
    if mode == "decorated":
        return decorated(f, lambda: draw(st.sampled_from((0, 0, 0, 1, 2, 3)))), True
    text = render(f)
    if mode == "truncated":
        return text[:draw(st.integers(0, len(text)))], False
    tokens = [t.text for t in _tokenize(text)]
    before = [[] for _ in range(len(tokens) + 1)]
    position = st.integers(0, len(tokens))
    for i, j in draw(st.lists(st.tuples(position, position), max_size=3)):
        before[min(i, j)].append("(")
        before[max(i, j)].append(")")
    for i in draw(st.lists(position, max_size=3)):
        before[i].append("~")
    text = " ".join(t for extra, tok in zip(before, tokens + [""]) for t in (*extra, tok) if t)
    return text, False


@settings(max_examples=600, deadline=None)
@given(corpus_texts())
def test_parser_agrees_with_reference_on_rendered_formulas(case):
    check(*case)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from((" ", " ", "", "\n"))),
                max_size=14))
def test_parser_agrees_with_reference_on_token_strings(pieces):
    check("".join(tok + sep for tok, sep in pieces))

