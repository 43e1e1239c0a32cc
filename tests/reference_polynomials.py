"""A frozen copy of the polynomial products and printers that the ranked
product kernel in `semlog.polynomials` replaced, kept as the oracle of the
differential test in test_polynomials.py.  Every pair product builds a dict
keyed by variable and a fresh `Monomial`, which merges and sorts it again by
`var_sort_key`; every factor of a print formats its variable anew.  The public
`Monomial`, `AbsorptivePoly` and `NatPoly` constructors are the old ones, so
the functions below build their results through them.  Do not optimize it:
its value is that it is the old semantics, line for line.

`RefAbsorptivePoly`, `RefNatPoly` and `ref_specialize` are frozen copies of
the two polynomial classes and of `specialize` from before both kinds shared
one term list, kept as the oracle of the differential test of the shared
base: the absorptive class stores bare `monomials`, each class has its own
`zero`/`one`/`var`, equality, hash, degree, support and printer, and
`ref_specialize` has one branch per class.  They run on the live `Monomial`,
`_prune` and `_product`, which that change left alone."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from semlog.errors import CarrierMismatch, PreconditionError
from semlog.polynomials import (
    AbsorptivePoly,
    Monomial,
    NatPoly,
    VarKey,
    _dual,
    _mono_sort_key,
    _Printer,
    _product,
    _prune,
    check_consistent,
    format_var,
)
from semlog.semirings import Semiring


def monomial_mul(self: Monomial, other: Monomial) -> Optional[Monomial]:
    """Product, or None when the quotient x_a * x_{~a} = 0 kills it."""
    merged: Dict[VarKey, int] = dict(self.exps)
    for v, e in other.exps:
        merged[v] = merged.get(v, 0) + e
    for v in merged:
        d = _dual(v)
        if d is not None and d in merged:
            return None
    return Monomial(merged.items())


def absorptive_mul(self: AbsorptivePoly, other: AbsorptivePoly) -> AbsorptivePoly:
    prods = []
    for m1 in self.monomials:
        for m2 in other.monomials:
            p = monomial_mul(m1, m2)
            if p is not None:
                prods.append(p)
    return AbsorptivePoly(prods)


def natpoly_mul(self: NatPoly, other: NatPoly) -> NatPoly:
    out = []
    for m1, c1 in self.terms:
        for m2, c2 in other.terms:
            merged: Dict[VarKey, int] = dict(m1.exps)
            for v, e in m2.exps:
                merged[v] = merged.get(v, 0) + e
            out.append((Monomial(merged.items()), c1 * c2))
    return NatPoly(out)


def monomial_repr(self: Monomial) -> str:
    if not self.exps:
        return "1"
    parts = []
    for v, e in self.exps:
        parts.append(format_var(v) if e == 1 else f"{format_var(v)}^{e}")
    return "*".join(parts)


def absorptive_repr(self: AbsorptivePoly) -> str:
    if not self.monomials:
        return "0"
    return " + ".join(monomial_repr(m) for m in self.monomials)


def natpoly_repr(self: NatPoly) -> str:
    if not self.terms:
        return "0"
    parts = []
    for m, c in self.terms:
        if m.is_unit():
            parts.append(str(c))
        elif c == 1:
            parts.append(monomial_repr(m))
        else:
            parts.append(f"{c}*{monomial_repr(m)}")
    return " + ".join(parts)


class RefAbsorptivePoly:
    """Antichain of monomials; 0 is the empty antichain, 1 is {unit}."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: Iterable[Monomial], prune: bool = True):
        ms = list(monomials)
        if prune:
            ms = _prune(ms)
        self.monomials = tuple(sorted(ms, key=_mono_sort_key))

    @classmethod
    def zero(cls) -> "RefAbsorptivePoly":
        return cls((), prune=False)

    @classmethod
    def one(cls) -> "RefAbsorptivePoly":
        return cls((Monomial.unit(),), prune=False)

    @classmethod
    def var(cls, v: VarKey) -> "RefAbsorptivePoly":
        return cls((Monomial.var(v),), prune=False)

    def __eq__(self, other):
        return isinstance(other, RefAbsorptivePoly) and self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def add(self, other: "RefAbsorptivePoly") -> "RefAbsorptivePoly":
        return RefAbsorptivePoly(self.monomials + other.monomials)

    def mul(self, other: "RefAbsorptivePoly") -> "RefAbsorptivePoly":
        terms = _product(
            [(m, 1) for m in self.monomials], [(m, 1) for m in other.monomials], quotient=True
        )
        prods = [m for m, _ in terms]
        kept = set(_prune(prods))
        p = object.__new__(RefAbsorptivePoly)  # prods are distinct and in canonical order
        p.monomials = tuple(m for m in prods if m in kept)
        return p

    def leq(self, other: "RefAbsorptivePoly") -> bool:
        return self.add(other) == other

    def degree(self) -> int:
        return max((m.degree() for m in self.monomials), default=0)

    def support(self):
        out = set()
        for m in self.monomials:
            out |= m.variables()
        return out

    def __repr__(self):
        if not self.monomials:
            return "0"
        return " + ".join(map(_Printer().monomial, self.monomials))


class RefNatPoly:
    """Polynomial with natural coefficients; no quotient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[Monomial, int]]):
        acc: Dict[Monomial, int] = {}
        for m, c in terms:
            if c < 0:
                raise PreconditionError("negative coefficient")
            if c:
                acc[m] = acc.get(m, 0) + c
        self.terms = tuple(sorted(acc.items(), key=lambda it: _mono_sort_key(it[0])))

    @classmethod
    def zero(cls) -> "RefNatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RefNatPoly":
        return cls(((Monomial.unit(), 1),))

    @classmethod
    def var(cls, v: VarKey) -> "RefNatPoly":
        return cls(((Monomial.var(v), 1),))

    @classmethod
    def const(cls, c: int) -> "RefNatPoly":
        return cls(((Monomial.unit(), c),))

    def __eq__(self, other):
        return isinstance(other, RefNatPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def add(self, other: "RefNatPoly") -> "RefNatPoly":
        return RefNatPoly(self.terms + other.terms)

    def mul(self, other: "RefNatPoly") -> "RefNatPoly":
        p = object.__new__(RefNatPoly)
        p.terms = tuple(_product(self.terms, other.terms, quotient=False))
        return p

    def leq(self, other: "RefNatPoly") -> bool:
        """Natural order: coefficient-wise <= (a witness summand exists iff
        every coefficient of self is at most the matching one of other)."""
        coeffs = dict(other.terms)
        return all(c <= coeffs.get(m, 0) for m, c in self.terms)

    def degree(self) -> int:
        return max((m.degree() for m, _ in self.terms), default=0)

    def support(self):
        out = set()
        for m, _ in self.terms:
            out |= m.variables()
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        printer = _Printer()
        parts = []
        for m, c in self.terms:
            if m.is_unit():
                parts.append(str(c))
            elif c == 1:
                parts.append(printer.monomial(m))
            else:
                parts.append(f"{c}*{printer.monomial(m)}")
        return " + ".join(parts)


def ref_specialize(poly, assignment: Dict[VarKey, Any], target: Semiring):
    """Homomorphic image of a polynomial under a consistent variable assignment."""
    check_consistent(assignment, target)

    def mono_value(m: Monomial):
        factors = []
        for v, e in m.exps:
            if v not in assignment:
                raise PreconditionError(f"no value for variable {format_var(v)}")
            factors.append(target.power(assignment[v], e))
        return target.prod(factors)

    if isinstance(poly, RefAbsorptivePoly):
        return target.sum(mono_value(m) for m in poly.monomials)
    if isinstance(poly, RefNatPoly):
        out = target.zero
        for m, c in poly.terms:
            mv = mono_value(m)
            for _ in range(c):
                out = target.add(out, mv)
        return out
    raise CarrierMismatch(f"not a polynomial: {poly!r}")
