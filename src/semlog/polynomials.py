"""Provenance polynomials: N[X] and the dual-variable absorptive quotient.

Variables are either free-form strings or literal keys ``(rel, args, positive)``
with ``args`` a tuple of universe elements.  Monomials over literal keys live
in the quotient generated by x_alpha * x_{not alpha} = 0: a product that would
contain both polarities of one atom is the zero monomial and is never stored.

Monomials are canonical: each variable occurs once, with a positive exponent
(repeated variables are merged by summing their exponents).

Both kinds of polynomial share one representation, ``terms``: pairs
``(monomial, coefficient)`` with distinct monomials and positive
coefficients, in canonical monomial order, with one equality, hash, degree,
support and printer over it.  N[X] (``NatPoly``) takes any natural
coefficient.  In the absorptive quotient (``AbsorptivePoly``) 1 + 1 = 1, so
every coefficient is 1 and ``monomials`` reads the terms without them.
Specialization is one loop over the terms.

Both products run through one ranked kernel, ``_product``: variables ranked
once per call by ``var_sort_key``, each monomial packed into one integer with
a fixed-width exponent field per rank, so that a pair product is one integer
addition, and each distinct product decoded once.  A print formats each
variable once.

An absorptive polynomial's monomials are an antichain under the absorption
order (m1 absorbs m2 when m1 has pointwise smaller exponents); addition is
union-then-prune, multiplication is pairwise product-then-prune.  Pruning
keeps the minimal monomials without testing every pair: a monomial that
absorbs a different canonical one has strictly lower degree, so monomials
are visited in degree order and each is tested only against those already
kept, found through a one-watch index that files each kept monomial under
its rarest variable (see ``_prune``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .errors import CarrierMismatch, PreconditionError
from .semirings import Semiring

EXPONENT_CAP = 2**32
_SHIFT = EXPONENT_CAP.bit_length() + 1  # room for the sum of two capped exponents
_EXP = (1 << _SHIFT) - 1

VarKey = Any  # str | (rel, args, positive)


def lit_var(rel: str, args: Tuple[int, ...], positive: bool = True) -> VarKey:
    return (rel, tuple(args), positive)


def _is_lit(var: VarKey) -> bool:
    return isinstance(var, tuple)


def _dual(var: VarKey) -> Optional[VarKey]:
    if _is_lit(var):
        rel, args, pos = var
        return (rel, args, not pos)
    return None


def var_sort_key(var: VarKey):
    if _is_lit(var):
        rel, args, pos = var
        return (1, rel, args, 0 if pos else 1)
    return (0, str(var))


def format_var(var: VarKey) -> str:
    if _is_lit(var):
        rel, args, pos = var
        body = f"{rel}({','.join(str(a) for a in args)})"
        return f"x[{body}]" if pos else f"x[~{body}]"
    return str(var)


class Monomial:
    """Product of variables with positive integer exponents, in canonical order."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[Tuple[VarKey, int]]):
        merged: Dict[VarKey, int] = {}
        for v, e in exps:
            if e < 0:
                raise PreconditionError("negative exponent")
            if e:
                merged[v] = merged.get(v, 0) + e
        for e in merged.values():
            if e > EXPONENT_CAP:
                raise PreconditionError(f"exponent exceeds cap {EXPONENT_CAP}")
        self.exps = tuple(sorted(merged.items(), key=lambda it: var_sort_key(it[0])))

    @classmethod
    def unit(cls) -> "Monomial":
        return cls(())

    @classmethod
    def var(cls, v: VarKey, e: int = 1) -> "Monomial":
        return cls(((v, e),))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def variables(self):
        return {v for v, _ in self.exps}

    def exponent(self, v: VarKey) -> int:
        for var, e in self.exps:
            if var == v:
                return e
        return 0

    def mul(self, other: "Monomial") -> Optional["Monomial"]:
        """Product, or None when the quotient x_a * x_{~a} = 0 kills it."""
        prods = _product(((self, 1),), ((other, 1),), quotient=True)
        return prods[0][0] if prods else None

    def is_unit(self) -> bool:
        return not self.exps

    def __repr__(self):
        return _Printer().monomial(self)


class _Printer(dict):
    """The text of each factor ``(variable, exponent)`` met in one print, each
    variable formatted once; ``monomial`` prints a monomial from it."""

    def __init__(self):
        self.names: Dict[VarKey, str] = {}

    def __missing__(self, factor) -> str:
        v, e = factor
        name = self.names.get(v)
        if name is None:
            name = self.names[v] = format_var(v)
        text = self[factor] = name if e == 1 else f"{name}^{e}"
        return text

    def monomial(self, m: Monomial) -> str:
        return "*".join(map(self.__getitem__, m.exps)) or "1"


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


def absorbs(m1: Monomial, m2: Monomial) -> bool:
    """m1 >= m2 in absorption order: m2 = m * m1 for some monomial m."""
    it = dict(m2.exps)
    for v, e in m1.exps:
        if it.get(v, 0) < e:
            return False
    return True


def _mono_sort_key(m: Monomial):
    return tuple((var_sort_key(v), e) for v, e in m.exps)


class _Poly:
    """A polynomial as its terms: ``(monomial, coefficient)`` pairs with
    distinct monomials and positive coefficients, in canonical order.  The
    subclasses build and combine terms; a subclass value is never equal to
    another subclass's, even on the same terms."""

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, terms) -> "_Poly":
        """The polynomial of ``terms``, already canonical."""
        p = object.__new__(cls)
        p.terms = tuple(terms)
        return p

    @classmethod
    def zero(cls):
        return cls._of(())

    @classmethod
    def one(cls):
        return cls._of(((Monomial.unit(), 1),))

    @classmethod
    def var(cls, v: VarKey):
        return cls._of(((Monomial.var(v), 1),))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def degree(self) -> int:
        return max((m.degree() for m, _ in self.terms), default=0)

    def support(self):
        return set().union(*(m.variables() for m, _ in self.terms))

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


class AbsorptivePoly(_Poly):
    """Antichain of monomials, each with coefficient 1; 0 is the empty
    antichain, 1 is {unit}."""

    __slots__ = ()

    def __init__(self, monomials: Iterable[Monomial]):
        self.terms = tuple((m, 1) for m in sorted(_prune(monomials), key=_mono_sort_key))

    @property
    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms)

    def add(self, other: "AbsorptivePoly") -> "AbsorptivePoly":
        return AbsorptivePoly(m for m, _ in self.terms + other.terms)

    def mul(self, other: "AbsorptivePoly") -> "AbsorptivePoly":
        prods = [m for m, _ in _product(self.terms, other.terms, quotient=True)]
        kept = set(_prune(prods))
        # prods are distinct and in canonical order; _product summed the
        # coefficients of equal products, so each is reset to 1.
        return AbsorptivePoly._of((m, 1) for m in prods if m in kept)

    def leq(self, other: "AbsorptivePoly") -> bool:
        return self.add(other) == other


def collapse_exponents(p: AbsorptivePoly) -> AbsorptivePoly:
    """p with every exponent set to 1, re-pruned: its image in the free
    distributive lattice, through which every valuation into a semiring with
    idempotent multiplication factors."""
    return AbsorptivePoly(Monomial((v, 1) for v, _ in m.exps) for m, _ in p.terms)


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


class NatPoly(_Poly):
    """Polynomial with natural coefficients; no quotient."""

    __slots__ = ()

    def __init__(self, terms: Iterable[Tuple[Monomial, int]]):
        acc: Dict[Monomial, int] = {}
        for m, c in terms:
            if c < 0:
                raise PreconditionError("negative coefficient")
            if c:
                acc[m] = acc.get(m, 0) + c
        self.terms = tuple(sorted(acc.items(), key=lambda it: _mono_sort_key(it[0])))

    @classmethod
    def const(cls, c: int) -> "NatPoly":
        return cls(((Monomial.unit(), c),))

    def add(self, other: "NatPoly") -> "NatPoly":
        return NatPoly(self.terms + other.terms)

    def mul(self, other: "NatPoly") -> "NatPoly":
        return NatPoly._of(_product(self.terms, other.terms, quotient=False))

    def leq(self, other: "NatPoly") -> bool:
        """Natural order: coefficient-wise <= (a witness summand exists iff
        every coefficient of self is at most the matching one of other)."""
        coeffs = dict(other.terms)
        return all(c <= coeffs.get(m, 0) for m, c in self.terms)


class _PolySemiring(Semiring):
    """A polynomial class as a semiring; subclasses add the id, the flags,
    parsing and random values."""

    def __init__(self, poly_class):
        self.zero = poly_class.zero()
        self.one = poly_class.one()

    def add(self, a, b):
        return a.add(b)

    def mul(self, a, b):
        return a.mul(b)

    def leq(self, s, t):
        return s.leq(t)

    def contains(self, v):
        return isinstance(v, type(self.zero))


def _random_monomial(rng, min_vars: int) -> Monomial:
    return Monomial(
        (rng.choice("uvwxyz"), rng.randrange(1, 4)) for _ in range(rng.randrange(min_vars, 3))
    )


class _AbsorptivePolySemiring(_PolySemiring):
    id = "spoly"
    additively_idempotent = True
    absorptive = True

    def parse_value(self, text):
        if text == "0":
            return AbsorptivePoly.zero()
        if text == "1":
            return AbsorptivePoly.one()
        return AbsorptivePoly.var(text)

    def random_value(self, rng, nonzero=False):
        count = rng.randrange(1 if nonzero else 0, 4)
        return AbsorptivePoly(_random_monomial(rng, 1) for _ in range(count))


class _NatPolySemiring(_PolySemiring):
    id = "natpoly"

    def parse_value(self, text):
        if text.isdigit():
            return NatPoly.const(int(text))
        return NatPoly.var(text)

    def random_value(self, rng, nonzero=False):
        count = rng.randrange(1 if nonzero else 0, 4)
        return NatPoly((_random_monomial(rng, 0), rng.randrange(1, 5)) for _ in range(count))


SPOLY = _AbsorptivePolySemiring(AbsorptivePoly)
NATPOLY = _NatPolySemiring(NatPoly)


def check_consistent(assignment: Dict[VarKey, Any], target: Semiring) -> None:
    """The universal-property side condition: f(x_a) * f(x_{~a}) = 0 for all
    atoms whose both polarities get assigned."""
    for v, val in assignment.items():
        d = _dual(v)
        if d is not None and d in assignment:
            if target.mul(val, assignment[d]) != target.zero:
                raise PreconditionError(
                    f"inconsistent assignment on dual pair {format_var(v)}"
                )


def specialize(poly, assignment: Dict[VarKey, Any], target: Semiring):
    """Homomorphic image of a polynomial under a consistent variable assignment."""
    check_consistent(assignment, target)

    def mono_value(m: Monomial):
        factors = []
        for v, e in m.exps:
            if v not in assignment:
                raise PreconditionError(f"no value for variable {format_var(v)}")
            factors.append(target.power(assignment[v], e))
        return target.prod(factors)

    if not isinstance(poly, _Poly):
        raise CarrierMismatch(f"not a polynomial: {poly!r}")
    out = target.zero
    for m, c in poly.terms:
        mv = mono_value(m)
        for _ in range(c):
            out = target.add(out, mv)
    return out
