"""A frozen copy of the polynomial products and printers that the ranked
product kernel in `semlog.polynomials` replaced, kept as the oracle of the
differential test in test_polynomials.py.  Every pair product builds a dict
keyed by variable and a fresh `Monomial`, which merges and sorts it again by
`var_sort_key`; every factor of a print formats its variable anew.  The public
`Monomial`, `AbsorptivePoly` and `NatPoly` constructors are the old ones, so
the functions below build their results through them.  Do not optimize it:
its value is that it is the old semantics, line for line."""

from __future__ import annotations

from typing import Dict, Optional

from semlog.polynomials import (
    AbsorptivePoly,
    Monomial,
    NatPoly,
    VarKey,
    _dual,
    format_var,
)


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
