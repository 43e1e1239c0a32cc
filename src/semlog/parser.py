"""Parser and printer for the concrete formula syntax.

Grammar::

    formula := "true" | "false" | atom | "~" formula
             | formula "&" formula | formula "|" formula
             | ("E"|"A"|"E!"|"A!") var "." formula | "(" formula ")"
    atom    := NAME "(" var ("," var)* ")" | var "=" var | var "!=" var

`&` binds tighter than `|`; quantifiers extend maximally to the right.
Negation may appear on any subformula and is compiled away to NNF.

`parse` reads the tokens in one operator-precedence loop (Dijkstra's
shunting-yard) with an operand stack and an operator stack of its own, so
neither nested quantifiers nor nested parentheses cost recursion.  `~` and
the quantifiers are prefix operators: `~` binds tightest, and a quantifier
binds loosest, so only a `)` or the end of input closes its scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .errors import SemlogError
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Or,
    Top,
    _fold,
    negate,
)


class ParseError(SemlogError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(message + where)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<neq>!=)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<sym>[()&|~=.,!])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


def _at(tokens, pos):
    """tokens[pos]; past the end, the error "unexpected end of input" at the
    last token."""
    if pos < len(tokens):
        return tokens[pos]
    last = tokens[-1] if tokens else _Token("", "", 1, 1)
    raise ParseError("unexpected end of input", last.line, last.column)


def _leaf(tokens, pos):
    """The constant, atom or equality whose first token, a name, is
    tokens[pos], and the position after it."""
    tok = tokens[pos]
    if tok.text in ("true", "false"):
        return (TRUE if tok.text == "true" else FALSE), pos + 1
    nxt = tokens[pos + 1].text if pos + 1 < len(tokens) else None
    if nxt == "(":
        args, pos = [], pos + 1
        while True:  # pos is at the "(" or "," before the next argument
            arg = _at(tokens, pos + 1)
            if arg.kind != "name":
                raise ParseError("expected a variable", arg.line, arg.column)
            args.append(arg.text)
            sep = _at(tokens, pos + 2)
            pos += 2
            if sep.text == ")":
                return Atom(tok.text, tuple(args)), pos + 1
            if sep.text != ",":
                raise ParseError(f"expected ',' or ')', found {sep.text!r}", sep.line, sep.column)
    if nxt in ("=", "!="):
        rhs = _at(tokens, pos + 2)
        if rhs.kind != "name":
            raise ParseError("expected a variable", rhs.line, rhs.column)
        return Eq(tok.text, rhs.text, positive=(nxt == "=")), pos + 3
    raise ParseError(f"bare variable {tok.text!r} is not a formula", tok.line, tok.column)


def _starts_quantifier(tokens, pos) -> bool:
    """Whether tokens[pos] is "E" or "A" followed by "!" or by a variable."""
    if pos + 1 >= len(tokens) or tokens[pos].text not in ("E", "A"):
        return False
    nxt = tokens[pos + 1]
    return nxt.text == "!" or (nxt.kind == "name" and nxt.text not in ("E", "A"))


# Operators waiting on the operator stack, as (precedence, operand count,
# build).  An arriving "&" or "|" first applies the operators above it that
# bind at least as tightly; ")" and the end of input apply every one down to
# the matching "(".  A quantifier (precedence 0) binds loosest, so its scope
# extends as far right as it can, and "~" binds tightest.
_OPEN, _OR, _AND, _NOT = (-1, 0, None), (1, 2, Or), (2, 2, And), (3, 1, negate)
_BINARY = {"|": _OR, "&": _AND}


def parse(text: str, vocabulary=None) -> Formula:
    """Parse a formula; with a vocabulary, check relation arities."""
    tokens = _tokenize(text)
    operands, operators = [], []
    pos, want_operand = 0, True
    while True:
        if want_operand:
            tok = _at(tokens, pos)
            if tok.text == "~" or tok.text == "(":
                operators.append(_NOT if tok.text == "~" else _OPEN)
                pos += 1
            elif _starts_quantifier(tokens, pos):
                distinct = tokens[pos + 1].text == "!"
                var = _at(tokens, pos + 1 + distinct)
                if var.kind != "name":
                    raise ParseError("expected a variable", var.line, var.column)
                dot = _at(tokens, pos + 2 + distinct)
                if dot.text != ".":
                    raise ParseError(f"expected '.', found {dot.text!r}", dot.line, dot.column)
                build = partial(Exists if tok.text == "E" else Forall, var.text, distinct=distinct)
                operators.append((0, 1, build))
                pos += 3 + distinct
            elif tok.kind == "name":
                leaf, pos = _leaf(tokens, pos)
                operands.append(leaf)
                want_operand = False
            else:
                raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)
            continue
        tok = tokens[pos] if pos < len(tokens) else None
        binary = _BINARY.get(tok.text) if tok is not None else None
        level = binary[0] if binary else 0
        while operators and operators[-1][0] >= level:
            _, count, build = operators.pop()
            operands[-count:] = [build(*operands[-count:])]
        if binary:
            operators.append(binary)
            want_operand = True
        elif operators:  # a "(" is open
            tok = _at(tokens, pos)
            if tok.text != ")":
                raise ParseError(f"expected ')', found {tok.text!r}", tok.line, tok.column)
            operators.pop()
        elif tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        else:
            break
        pos += 1
    f = operands[0]
    if vocabulary is not None:
        vocabulary.check_formula(f)
    return f


_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def _wrap(part, prec: int) -> str:
    """A rendered operand, parenthesized where it binds looser than prec."""
    text, own = part
    return f"({text})" if own < prec else text


def _render_step(g: Formula, *below):
    """The text of g and the precedence it binds with, from those of its
    children: the step that `render` folds."""
    if isinstance(g, (Top, Bottom, Atom, Eq)):
        return repr(g), _PREC_UNARY
    if isinstance(g, Or):
        return f"{_wrap(below[0], _PREC_OR)} | {_wrap(below[1], _PREC_OR + 1)}", _PREC_OR
    if isinstance(g, And):
        return f"{_wrap(below[0], _PREC_AND)} & {_wrap(below[1], _PREC_AND + 1)}", _PREC_AND
    if isinstance(g, (Exists, Forall)):
        q = ("E" if isinstance(g, Exists) else "A") + ("!" if g.distinct else "")
        return f"{q} {g.var}. {below[0][0]}", 0
    raise SemlogError(f"not a formula: {g!r}")


def render(f: Formula) -> str:
    """Print in the concrete syntax; parse(render(f)) == f for variable-only
    formulae."""
    return _fold(f, _render_step)[0]
