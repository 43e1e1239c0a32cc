"""A frozen copy of the polynomial products and printers that the ranked
product kernel in `semlog.polynomials` replaced, kept as the oracle of the
differential test in test_polynomials.py.  Every pair product builds a dict
keyed by variable and a fresh `Monomial`, which merges and sorts it again by
`var_sort_key`; every factor of a print formats its variable anew.  The public
`Monomial` constructor is the old one, so the functions below build their
monomials through it, and their polynomials through the frozen prune and
canonical order below.  Do not optimize it: its value is that it is the old
semantics, line for line.

`RefAbsorptivePoly`, `RefNatPoly` and `ref_specialize` are frozen copies of
the two polynomial classes and of `specialize` from before both kinds shared
one term list, kept as the oracle of the differential test of the shared
base: the absorptive class stores bare `monomials`, each class has its own
`zero`/`one`/`var`, equality, hash, degree, support and printer, and
`ref_specialize` has one branch per class.  They run on the live `Monomial`.

`_product`, `_prune`, `_has_absorber` and `_mono_sort_key` are frozen copies
of the kernel from before the absorptive prune moved onto packed keys: the
product decodes every distinct sum factor by factor, and the prune runs on
`Monomial` objects in degree order through a one-watch index of dict
lookups.  `RefAbsorptivePoly`, `RefNatPoly`, `absorptive_mul`, `natpoly_mul`
and `ref_collapse_exponents` run on these copies, so the differential tests
see every change to the live prune, product and canonical order."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from semlog.errors import CarrierMismatch, PreconditionError
from semlog.polynomials import (
    _EXP,
    _SHIFT,
    EXPONENT_CAP,
    AbsorptivePoly,
    Monomial,
    NatPoly,
    VarKey,
    _dual,
    _Printer,
    check_consistent,
    format_var,
    var_sort_key,
)
from semlog.semirings import Semiring


def _product(left, right, quotient: bool) -> list:
    """Every pairwise product of two term lists ``(monomial, coefficient)``,
    coefficients summed per monomial: ``[(monomial, coefficient)]`` in
    canonical order.  With ``quotient``, products holding a literal and its
    dual are dropped.

    The union of both sides' variables is ranked once by ``var_sort_key``.
    Each monomial becomes one integer, the exponent of the variable of rank
    ``r`` in bits ``[r * _SHIFT, (r + 1) * _SHIFT)``, with a support bitmask
    and, in the quotient, the mask of its variables' duals.  A pair product
    is the sum of the two integers: a field holds at most twice
    ``EXPONENT_CAP``, so no carry crosses fields, and only a sum whose
    supports overlap and that reaches the cap in some field is walked field
    by field for the cap check.  Each distinct product is decoded once, from
    its highest field down, into factors ``rank << _SHIFT | exponent``; ranks
    keep ``var_sort_key`` order, which is injective on variables, so the
    factor tuples sort exactly as ``_mono_sort_key`` sorts the monomials.
    """
    names = sorted({v for m, _ in (*left, *right) for v, _ in m.exps}, key=var_sort_key)
    rank = {v: r for r, v in enumerate(names)}
    dual_bit = [1 << rank[_dual(v)] if quotient and _dual(v) in rank else 0 for v in names]
    # Bits 32 and 33 of every field: a field at or above the cap sets one of them.
    over = ((1 << len(names) * _SHIFT) - 1) // _EXP * 3 * EXPONENT_CAP

    def encode(terms):
        out = []
        for m, c in terms:
            key = mask = duals = 0
            for v, e in m.exps:
                r = rank[v]
                key |= e << r * _SHIFT
                mask |= 1 << r
                duals |= dual_bit[r]
            if not duals & mask:  # else every product with m holds a dual pair
                out.append((key, mask, duals, c))
        return out

    acc: Dict[int, int] = {}
    rights = encode(right)
    for k1, mask1, duals1, c1 in encode(left):
        for k2, mask2, _, c2 in rights:
            if duals1 & mask2:
                continue
            key = k1 + k2
            if mask1 & mask2 and key & over:
                rest = key
                while rest:
                    if rest & _EXP > EXPONENT_CAP:
                        raise PreconditionError(f"exponent exceeds cap {EXPONENT_CAP}")
                    rest >>= _SHIFT
            acc[key] = acc.get(key, 0) + c1 * c2
    interned: Dict[int, int] = {}
    rows = []
    while acc:
        key, c = acc.popitem()
        factors = []
        while key:
            r = (key.bit_length() - 1) // _SHIFT
            e = key >> r * _SHIFT
            key ^= e << r * _SHIFT
            x = r << _SHIFT | e
            factors.append(interned.setdefault(x, x))
        factors.reverse()
        rows.append((tuple(factors), c))
    rows.sort()
    decode = {x: (names[x >> _SHIFT], x & _EXP) for x in interned}
    for i, (factors, c) in enumerate(rows):
        m = object.__new__(Monomial)  # no second merge, cap check or sort
        m.exps = tuple(map(decode.__getitem__, factors))
        rows[i] = (m, c)
    return rows


def _mono_sort_key(m: Monomial):
    return tuple((var_sort_key(v), e) for v, e in m.exps)


def _prune(monomials) -> list:
    """The minimal monomials of ``monomials`` under absorption, in no set order.

    Monomials must be canonical (each variable once, positive exponents), as
    ``Monomial`` builds them.  Then a monomial that absorbs a different one
    has strictly lower degree, so after deduplication and a sort by degree
    each monomial is tested only against those already kept: any absorber
    of it is itself absorbed by a kept, minimal one.  Each kept monomial is
    filed under one of its variables, the rarest in this input, so a
    candidate absorber of ``m`` is met exactly once, in the list of one of
    ``m``'s own variables.  It is tested on support bitmasks first and on
    exponents only when its support lies inside ``m``'s.
    """
    distinct = set(monomials)
    unit = Monomial.unit()
    if unit in distinct:
        return [unit]
    freq: Dict[VarKey, int] = {}
    for m in distinct:
        for v, _ in m.exps:
            freq[v] = freq.get(v, 0) + 1
    bit = {v: 1 << i for i, v in enumerate(freq)}
    watch: Dict[VarKey, list] = {v: [] for v in freq}
    kept = []
    for m in sorted(distinct, key=Monomial.degree):
        m_mask = sum(bit[v] for v, _ in m.exps)
        if not _has_absorber(m, m_mask, watch):
            kept.append(m)
            rarest = min((v for v, _ in m.exps), key=freq.__getitem__)
            watch[rarest].append((m_mask, m.exps))
    return kept


def _has_absorber(m: Monomial, m_mask: int, watch: Dict[VarKey, list]) -> bool:
    """Whether a monomial filed in ``watch`` absorbs ``m``."""
    m_exps = None
    for v, _ in m.exps:
        for k_mask, k_exps in watch[v]:
            if k_mask & m_mask == k_mask:
                if m_exps is None:
                    m_exps = dict(m.exps)
                if all(m_exps[u] >= e for u, e in k_exps):
                    return True
    return False


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
    return AbsorptivePoly._of((m, 1) for m in sorted(_prune(prods), key=_mono_sort_key))


def natpoly_mul(self: NatPoly, other: NatPoly) -> NatPoly:
    out = []
    for m1, c1 in self.terms:
        for m2, c2 in other.terms:
            merged: Dict[VarKey, int] = dict(m1.exps)
            for v, e in m2.exps:
                merged[v] = merged.get(v, 0) + e
            out.append((Monomial(merged.items()), c1 * c2))
    return NatPoly._of(RefNatPoly(out).terms)


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


def ref_collapse_exponents(p: RefAbsorptivePoly) -> RefAbsorptivePoly:
    """p with every exponent set to 1, re-pruned."""
    return RefAbsorptivePoly(Monomial((v, 1) for v, _ in m.exps) for m in p.monomials)


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
