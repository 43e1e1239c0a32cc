"""A frozen copy of the recursive-descent parser that the operator-precedence
loop in `semlog.parser` replaced, kept as the oracle of the differential test
in test_parser_reference.py.  It shares the tokenizer and `ParseError` with
`semlog.parser`.  Do not optimize it: its value is that it is the old
semantics, line for line."""

from __future__ import annotations

from semlog.formulas import FALSE, TRUE, And, Atom, Eq, Exists, Forall, Formula, Or, negate
from semlog.parser import ParseError, _tokenize


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            if self.tokens:
                last = self.tokens[-1]
                raise ParseError("unexpected end of input", last.line, last.column)
            raise ParseError("unexpected end of input", 1, 1)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def at_quantifier(self):
        tok = self.peek()
        if tok is None or tok.kind != "name" or tok.text not in ("E", "A"):
            return False
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        # "E" / "A" start a quantifier when followed by "!"+var or a var
        if nxt is None:
            return False
        if nxt.text == "!":
            return True
        return nxt.kind == "name" and nxt.text not in ("E", "A")

    def parse_formula(self) -> Formula:
        if self.at_quantifier():
            return self.parse_quantified()
        return self.parse_or()

    def parse_quantified(self) -> Formula:
        tok = self.next()
        distinct = False
        if self.peek() is not None and self.peek().text == "!":
            self.next()
            distinct = True
        var_tok = self.next()
        if var_tok.kind != "name":
            raise ParseError("expected a variable", var_tok.line, var_tok.column)
        self.expect(".")
        body = self.parse_formula()
        cls = Exists if tok.text == "E" else Forall
        return cls(var_tok.text, body, distinct)

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek() is not None and self.peek().text == "|":
            self.next()
            if self.at_quantifier():
                return Or(left, self.parse_quantified())
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.peek() is not None and self.peek().text == "&":
            self.next()
            if self.at_quantifier():
                return And(left, self.parse_quantified())
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.next()  # raises with the last token's position
        if tok.text == "~":
            self.next()
            return negate(self.parse_unary())
        if tok.text == "(":
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if self.at_quantifier():
            return self.parse_quantified()
        if tok.kind == "name":
            self.next()
            if tok.text == "true":
                return TRUE
            if tok.text == "false":
                return FALSE
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                return self.parse_atom_args(tok)
            if nxt is not None and nxt.text in ("=", "!="):
                op = self.next()
                rhs = self.next()
                if rhs.kind != "name":
                    raise ParseError("expected a variable", rhs.line, rhs.column)
                return Eq(tok.text, rhs.text, positive=(op.text == "="))
            raise ParseError(
                f"bare variable {tok.text!r} is not a formula", tok.line, tok.column
            )
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def parse_atom_args(self, name_tok) -> Formula:
        self.expect("(")
        args = []
        while True:
            arg = self.next()
            if arg.kind != "name":
                raise ParseError("expected a variable", arg.line, arg.column)
            args.append(arg.text)
            tok = self.next()
            if tok.text == ")":
                break
            if tok.text != ",":
                raise ParseError(f"expected ',' or ')', found {tok.text!r}", tok.line, tok.column)
        return Atom(name_tok.text, tuple(args))


def parse(text: str, vocabulary=None) -> Formula:
    """Parse a formula; with a vocabulary, check relation arities."""
    parser = _Parser(text)
    f = parser.parse_formula()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    if vocabulary is not None:
        vocabulary.check_formula(f)
    return f
