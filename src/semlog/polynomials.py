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

Both products, and both constructors (the input times the unit term list
``_UNIT``), run through one ranked kernel, ``_product``: variables ranked
once per call by ``var_sort_key``, each monomial packed into one integer with
a fixed-width exponent field per rank, so that a pair product is one integer
addition.  The constructors, and products of fewer than ``_SPLIT_FROM``
terms, decode each distinct product at once.  A larger product is kept
packed: its ``terms`` are decoded when first read, and printing it decodes
nothing.  Its keys are read as two halves, each distinct half decoded once,
and put in canonical order by one integer position each (``_placed``).  A
sum of two polynomials merges their canonical term lists.  One printer,
``_printed``, prints every polynomial and monomial from packed keys, a
decoded one packed again first, each variable and each distinct half
formatted once.

An absorptive polynomial's monomials are an antichain under the absorption
order (m1 absorbs m2 when m1 has pointwise smaller exponents); addition is
union-then-prune, multiplication is pairwise product-then-prune, and ``leq``
asks whether each monomial of one side is absorbed by one of the other.  The
one prune, ``_minimal``, runs on packed keys, before anything is decoded:
with the top bit of every field set in m, k absorbs m exactly when
subtracting k leaves every top bit set, since no field is above
``EXPONENT_CAP`` and so no borrow crosses fields.  A monomial that absorbs a
different one has strictly lower degree, so keys are visited by degree and
each is tested only against the kept keys of lower degree, found through a
watch index that files each kept key under its rarest variable; a product
whose terms all have one degree, as the ``pi_n`` products do, tests nothing.
A sum prunes its merged terms this way and keeps its operands' ``Monomial``
objects.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .errors import CarrierMismatch, PreconditionError
from .semirings import Semiring

EXPONENT_CAP = 2**32
_SHIFT = EXPONENT_CAP.bit_length() + 1  # room for the sum of two capped exponents
_EXP = (1 << _SHIFT) - 1
_GUARD = 1 << _SHIFT - 1  # the top bit of a field, above every capped exponent

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
        prods = _decoded(*_product(((self, 1),), ((other, 1),), quotient=True))
        return prods[0][0] if prods else None

    def is_unit(self) -> bool:
        return not self.exps

    def __repr__(self):
        return _printed(*_packing(((self, 1),)))


# The unit term list: a product with it is the other side's terms, canonical.
_UNIT = ((Monomial.unit(), 1),)


def _every_field(ranks: int, value: int) -> int:
    """``value`` in each of the first ``ranks`` fields of a packed key."""
    return ((1 << ranks * _SHIFT) - 1) // _EXP * value


def _packed(m: Monomial, rank: Dict[VarKey, int]) -> Tuple[int, int, int]:
    """``m`` as one integer, the exponent of the variable of rank ``r`` in bits
    ``[r * _SHIFT, (r + 1) * _SHIFT)``, with its support bitmask and degree.
    A variable not in ``rank`` yet is given the next rank."""
    key = mask = degree = 0
    for v, e in m.exps:
        r = rank.setdefault(v, len(rank))
        key |= e << r * _SHIFT
        mask |= 1 << r
        degree += e
    return key, mask, degree


def _cmp(m1: Monomial, m2: Monomial) -> int:
    """Negative, zero or positive as ``m1`` comes before, equals or comes
    after ``m2`` in canonical order; ``var_sort_key`` is read only at the
    first factor where the two differ."""
    for (v1, e1), (v2, e2) in zip(m1.exps, m2.exps):
        if v1 != v2:
            return -1 if var_sort_key(v1) < var_sort_key(v2) else 1
        if e1 != e2:
            return e1 - e2
    return len(m1.exps) - len(m2.exps)


def _merged(left, right) -> list:
    """Two term lists in canonical order merged into one, the coefficients of
    equal monomials summed."""
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        order = _cmp(a[0], b[0])
        if order <= 0:
            out.append(a if order else (a[0], a[1] + b[1]))
            i += 1
        if order >= 0:
            if order:
                out.append(b)
            j += 1
    out += left[i:]
    out += right[j:]
    return out


def _check_cap(key: int) -> None:
    """Raise when a field of the packed ``key`` is above ``EXPONENT_CAP``."""
    while key:
        if key & _EXP > EXPONENT_CAP:
            raise PreconditionError(f"exponent exceeds cap {EXPONENT_CAP}")
        key >>= _SHIFT


def _packing(terms) -> Tuple[Dict[int, int], List[VarKey]]:
    """A canonical term list as ``_product`` returns a product: packed key ->
    coefficient, and the ranked variables.  Each distinct factor ``(variable,
    exponent)`` is shifted into its field once, and a key is the sum of its
    monomial's fields."""
    fields: Dict[Tuple[VarKey, int], int] = {}
    for m, _ in terms:
        for factor in m.exps:
            fields[factor] = 0
    names = sorted({v for v, _ in fields}, key=var_sort_key)
    rank = {v: r for r, v in enumerate(names)}
    for v, e in fields:
        fields[v, e] = e << rank[v] * _SHIFT
    acc = {}
    for m, c in terms:
        key = 0
        for factor in m.exps:
            key += fields[factor]
        acc[key] = c
    return acc, names


def _product(left, right, quotient: bool, prune: bool = False):
    """Every pairwise product of two term lists ``(monomial, coefficient)``,
    coefficients summed per monomial, packed: ``(acc, names)``, ``acc``
    mapping each distinct packed key to its coefficient over the ranked
    variables ``names``, for ``_decoded`` or ``_printed`` to read.  With
    ``quotient``, products holding a literal and its dual are dropped; with
    ``prune``, so are products absorbed by another, and every coefficient is
    1.

    The union of both sides' variables is ranked once by ``var_sort_key`` and
    each monomial packed as ``_packed`` packs it, with the mask of its
    variables' duals in the quotient.  A pair product is the sum of the two
    integers: a field holds at most twice ``EXPONENT_CAP``, so no carry
    crosses fields, and only a sum whose supports overlap and that reaches
    the cap in some field is walked field by field for the cap check.  The
    prune (``_minimal``) runs on the distinct sums.
    """
    names = sorted({v for m, _ in (*left, *right) for v, _ in m.exps}, key=var_sort_key)
    rank = {v: r for r, v in enumerate(names)}
    ranks = len(names)
    # A literal and its dual are neighbours in ``var_sort_key`` order, the
    # positive one first, so the duals of a support are its positive
    # literals' bits shifted up by one and its negative literals' shifted down.
    up = down = 0
    if quotient:
        for r, v in enumerate(names):
            if _dual(v) in rank:
                if v[2]:
                    up |= 1 << r
                else:
                    down |= 1 << r
    # Bits 32 and 33 of every field: a field at or above the cap sets one of them.
    over = _every_field(ranks, 3 * EXPONENT_CAP)

    def encode(terms):
        out = []
        for m, c in terms:
            key, mask, degree = _packed(m, rank)
            duals = (mask & up) << 1 | (mask & down) >> 1 if quotient else 0
            if not duals & mask:  # else every product with m holds a dual pair
                out.append((key, mask, duals, degree << ranks | mask if prune else c))
        return out

    acc: Dict[int, int] = {}
    rights = encode(right)
    if prune:
        for k1, mask1, duals1, tag1 in encode(left):
            for k2, mask2, _, tag2 in rights:
                if not duals1 & mask2:
                    key = k1 + k2
                    both = mask1 & mask2
                    if both and key & over:
                        _check_cap(key)
                    acc[key] = tag1 + tag2 - both  # degrees add, supports unite
        acc = _minimal(acc, ranks)
    else:
        for k1, mask1, duals1, c1 in encode(left):
            for k2, mask2, _, c2 in rights:
                if not duals1 & mask2:
                    key = k1 + k2
                    if mask1 & mask2 and key & over:
                        _check_cap(key)
                    acc[key] = acc.get(key, 0) + c1 * c2
    return acc, names


def _factors(parts: Dict[int, Any], interned: Dict[int, int]) -> list:
    """``[(factors, value)]`` for each item ``packed part -> value`` popped
    from ``parts``: the factors ``rank << _SHIFT | exponent`` of the part,
    read from the highest field down, each distinct factor kept once in
    ``interned``."""
    out = []
    while parts:
        part, value = parts.popitem()
        factors = []
        while part:
            r = (part.bit_length() - 1) // _SHIFT
            e = part >> r * _SHIFT
            part ^= e << r * _SHIFT
            x = r << _SHIFT | e
            factors.append(interned.setdefault(x, x))
        factors.reverse()
        out.append((tuple(factors), value))
    return out


# From this many keys on, a product is kept packed until its terms are read,
# and its keys are read as two halves (``_placed``): below it, the halves of
# the keys that products meet are seldom shared, and the split costs more
# than the shared decodes save.
_SPLIT_FROM = 64


def _placed(acc: Dict[int, Any], ranks: int, interned: Dict[int, int]):
    """The keys of ``acc``, packed over ``ranks`` ranks, in canonical order
    by one integer position each, read as two halves, their low ranks and
    their high ranks: ``(placed, lows, highs)``.  ``placed`` maps each key's
    position to its value in ``acc``; the key at position ``p`` is the low
    half ``lows[p // len(highs)]`` followed by the high half
    ``highs[p % len(highs)]``.  ``lows`` holds ``(factors, more)`` pairs,
    ``highs`` factor tuples; each distinct half is decoded once, each
    distinct factor kept once in ``interned``, and ``acc`` is left as it is.

    The factors ``rank << _SHIFT | exponent`` sort as ``(var_sort_key(v),
    exponent)`` does, since the ranks follow ``var_sort_key``, so factor
    tuples sort in canonical order.  The high halves sort so, the empty one
    first.  Each distinct low half takes two places among the low halves:
    where its factors sort, for the key that it ends (``more`` false), and
    after every longer low half that it begins, for the keys that go on into
    a high half (``more`` true), since the next factor of such a key is a
    high one, above every low factor.
    """
    shift = ranks // 2 * _SHIFT
    low = (1 << shift) - 1
    highs = sorted(_factors({p << shift: p for p in {key >> shift for key in acc}}, interned))
    past = (ranks << _SHIFT,)  # above every factor
    rows = []
    for factors, part in _factors({p: p for p in {key & low for key in acc}}, interned):
        rows += ((factors, False, part, factors), (factors + past, True, part, factors))
    rows.sort()
    width = len(highs)
    column = {part: j for j, (_, part) in enumerate(highs)}
    ends, goes_on = {}, {}
    for i, (_, more, part, _) in enumerate(rows):
        (goes_on if more else ends)[part] = i * width
    placed = {}
    for key, value in acc.items():
        high = key >> shift
        placed[(goes_on if high else ends)[key & low] + column[high]] = value
    return placed, [(factors, more) for _, more, _, factors in rows], [f for f, _ in highs]


def _decoded(acc: Dict[int, int], names: List[VarKey]) -> list:
    """``[(monomial, coefficient)]`` in canonical order from ``acc``, packed
    key -> coefficient over the ranked variables ``names``.

    Fewer than ``_SPLIT_FROM`` keys are read whole, popped from ``acc``, and
    their factor tuples sorted.  More are read and ordered by ``_placed``,
    each monomial the decoded low half followed by the decoded high half.
    Each distinct factor becomes its ``(variable, exponent)`` pair once.
    """
    interned: Dict[int, int] = {}
    if len(acc) < _SPLIT_FROM:
        rows = _factors(acc, interned)
        rows.sort()
        pairs = {x: (names[x >> _SHIFT], x & _EXP) for x in interned}
        for i, (factors, c) in enumerate(rows):
            m = object.__new__(Monomial)  # no second merge, cap check or sort
            m.exps = tuple(map(pairs.__getitem__, factors))
            rows[i] = (m, c)
        return rows
    placed, lows, highs = _placed(acc, len(names), interned)
    pairs = {x: (names[x >> _SHIFT], x & _EXP) for x in interned}
    halves = {f: tuple(map(pairs.__getitem__, f)) for f in (*highs, *(f for f, _ in lows))}
    heads = [halves[factors] for factors, _ in lows]
    tails = list(map(halves.__getitem__, highs))
    width = len(tails)
    rows = []
    for p in sorted(placed):
        i, j = divmod(p, width)
        m = object.__new__(Monomial)
        m.exps = heads[i] + tails[j]
        rows.append((m, placed[p]))
    return rows


def _printed(acc: Dict[int, int], names: List[VarKey]) -> str:
    """The text of the polynomial ``acc``, packed key -> coefficient over the
    ranked variables ``names``: its terms in canonical order, as ``_placed``
    orders them, joined by `` + ``, each term its coefficient (omitted when
    1) and its monomial's factors joined by ``*``; the unit monomial prints
    as its coefficient and the zero polynomial as ``0``.  Each variable,
    and each distinct half of the keys, is formatted once."""
    if not acc:
        return "0"
    placed, lows, highs = _placed(acc, len(names), {})
    formatted = list(map(format_var, names))

    def text(factors):
        return "*".join([formatted[x >> _SHIFT] if x & _EXP == 1
                         else f"{formatted[x >> _SHIFT]}^{x & _EXP}" for x in factors])

    texts = {factors: text(factors) for factors, _ in lows}
    heads = [texts[factors] + "*" if more and factors else texts[factors]
             for factors, more in lows]
    tails = list(map(text, highs))
    width = len(tails)
    parts = []
    for p in sorted(placed):
        i, j = divmod(p, width)
        mono, c = heads[i] + tails[j], placed[p]
        parts.append(f"{c}*{mono}" if c != 1 and mono else mono or str(c))
    return " + ".join(parts)


def _bits(mask: int) -> List[int]:
    """The set bits of ``mask``, each as an integer."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def _watch(filed: List[int], tested: Iterable[int] = ()) -> Tuple[dict, dict]:
    """Watch lists for absorber lookups among packed keys: ``filed`` holds the
    support mask of each key that may be filed, ``tested`` further masks of
    keys that are only looked up.  Returns ``scans``, the lists to scan for
    an absorber of a key of each support, and ``homes``, the list to file a
    key of each filed support in.

    A key is filed under one variable of its support, the rarest in
    ``filed``, so an absorber of a key ``m``, whose support lies inside
    ``m``'s, is met exactly once, in the list of one of ``m``'s own
    variables.  Up to eight filed keys share one list instead: at the sizes
    that sums, ``leq`` and small products meet, building the index costs
    ten times as much as the list, and scanning the list no more.
    """
    if len(filed) <= 8:
        shared: list = []
        return dict.fromkeys([*filed, *tested], (shared,)), dict.fromkeys(filed, shared)
    counts = Counter(filed)
    bits = {mask: _bits(mask) for mask in (*counts, *tested)}
    freq: Dict[int, int] = {}
    for mask, n in counts.items():
        for b in bits[mask]:
            freq[b] = freq.get(b, 0) + n
    lists: Dict[int, list] = {b: [] for b in freq}
    scans = {mask: [lists[b] for b in bs if b in lists] for mask, bs in bits.items()}
    homes = {mask: lists[min(bits[mask], key=freq.__getitem__)] for mask in counts}
    return scans, homes


def _inside(mask: int, scan: List[list]) -> List[int]:
    """The keys of the entries ``(support mask, packed key)`` of the lists
    ``scan`` whose support lies inside ``mask``."""
    return [k for entries in scan for k_mask, k in entries if k_mask & mask == k_mask]


def _absorbed(top: int, keys: List[int], guard: int) -> bool:
    """Whether one of ``keys`` absorbs a key m: has no field above m's.
    ``guard`` is the top bit of every field and ``top`` is ``m | guard``.
    Every field is at most ``EXPONENT_CAP``, below the guard bit, so
    ``top - k`` borrows from no field, and a field keeps its guard bit
    exactly when k's field is not above m's."""
    for k in keys:
        if (top - k) & guard == guard:
            return True
    return False


def _minimal(acc: Dict[int, int], ranks: int) -> Dict[int, int]:
    """The keys of ``acc`` that no other key absorbs, each mapped to 1, the
    coefficient ``_decoded`` reads; empties ``acc``.  ``acc`` maps each
    distinct packed key over ``ranks`` ranks to ``degree << ranks | support
    mask``.

    A key that absorbs a different one has a smaller degree, so keys of one
    degree, as the products of ``pi_n`` have, are all kept untested.  Else
    keys are visited by degree and each is tested only against the kept keys
    of lower degree, since any absorber of it is itself absorbed by a kept,
    minimal one.  A degree's kept keys are filed once the next degree starts,
    so within a degree the filed keys whose support lies inside a given
    support are looked up once per support.
    """
    top = max(acc.values(), default=0) >> ranks
    if 0 in acc or min(acc.values(), default=0) >> ranks == top:
        kept = dict.fromkeys([0] if 0 in acc else acc, 1)  # the unit absorbs every other
        acc.clear()
        return kept
    support = (1 << ranks) - 1
    guard = _every_field(ranks, _GUARD)
    scans, homes = _watch([tag & support for tag in acc.values()])
    keys = sorted(acc, key=acc.__getitem__, reverse=True)
    kept = {}
    level: List[Tuple[int, int]] = []  # the kept keys of the current degree
    inside: Dict[int, List[int]] = {}  # support mask -> filed keys inside it
    degree = -1
    while keys:
        key = keys.pop()  # each rejected key is freed once it is tested
        tag = acc.pop(key)
        if tag >> ranks != degree:
            degree = tag >> ranks
            if level:
                for entry in level:
                    homes[entry[0]].append(entry)
                level = []
                inside.clear()
        mask = tag & support
        found = inside.get(mask)
        if found is None:
            found = inside[mask] = _inside(mask, scans[mask])
        if not _absorbed(key | guard, found, guard):
            kept[key] = 1
            if degree < top:  # the keys of the top degree are never filed
                level.append((mask, key))
    return kept


def absorbs(m1: Monomial, m2: Monomial) -> bool:
    """m1 >= m2 in absorption order: m2 = m * m1 for some monomial m."""
    it = dict(m2.exps)
    for v, e in m1.exps:
        if it.get(v, 0) < e:
            return False
    return True


class _Poly:
    """A polynomial as its terms: ``(monomial, coefficient)`` pairs with
    distinct monomials and positive coefficients, in canonical order.  The
    subclasses build and combine terms; a subclass value is never equal to
    another subclass's, even on the same terms.

    A product of ``_SPLIT_FROM`` terms or more is kept as ``_product``
    built it, packed, in the slot ``_packed``, with ``terms`` unset: reading
    ``terms`` decodes it and drops the packed form, and printing it reads
    the packed keys and decodes nothing."""

    __slots__ = ("terms", "_packed")

    @classmethod
    def _of(cls, terms) -> "_Poly":
        """The polynomial of ``terms``, already canonical."""
        p = object.__new__(cls)
        p.terms = tuple(terms)
        return p

    @classmethod
    def _of_product(cls, acc: Dict[int, int], names: List[VarKey]) -> "_Poly":
        """The polynomial of a product as ``_product`` returns it: kept
        packed from ``_SPLIT_FROM`` keys on, else decoded now."""
        if len(acc) < _SPLIT_FROM:
            return cls._of(_decoded(acc, names))
        p = object.__new__(cls)
        p._packed = (acc, names)
        return p

    def __getattr__(self, name):
        # Reached only when a slot is unset: ``terms`` of a packed product.
        if name != "terms":
            raise AttributeError(name)
        acc, names = self._packed
        self.terms = terms = tuple(_decoded(acc, names))
        del self._packed
        return terms

    @classmethod
    def zero(cls):
        return cls._of(())

    @classmethod
    def one(cls):
        return cls._of(_UNIT)

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
        try:
            packed = self._packed
        except AttributeError:  # decoded: packed again to print
            packed = _packing(self.terms)
        return _printed(*packed)


class AbsorptivePoly(_Poly):
    """Antichain of monomials, each with coefficient 1; 0 is the empty
    antichain, 1 is {unit}."""

    __slots__ = ()

    def __init__(self, monomials: Iterable[Monomial]):
        # No quotient: a monomial given with both polarities of an atom is kept.
        self.terms = tuple(_decoded(*_product([(m, 1) for m in monomials], _UNIT,
                                              quotient=False, prune=True)))

    @property
    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms)

    def add(self, other: "AbsorptivePoly") -> "AbsorptivePoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        # Not a product with the unit: most sums add a term or two, and the
        # kernel's rank sort and decode cost more than this merge and prune.
        merged = _merged(self.terms, other.terms)  # the prune keeps this order
        return AbsorptivePoly._of((m, 1) for m in _prune(m for m, _ in merged))

    def mul(self, other: "AbsorptivePoly") -> "AbsorptivePoly":
        return AbsorptivePoly._of_product(*_product(self.terms, other.terms, quotient=True,
                                                    prune=True))

    def leq(self, other: "AbsorptivePoly") -> bool:
        """Natural order, ``self + other == other``: on antichains, every
        monomial of self is absorbed by one of other."""
        if not self.terms:
            return True
        if not other.terms:
            return False
        if other.terms[0][0].is_unit():  # the unit sorts first and absorbs all
            return True
        rank: Dict[VarKey, int] = {}
        filed = [_packed(m, rank) for m, _ in other.terms]
        tested = [_packed(m, rank) for m, _ in self.terms]
        scans, homes = _watch([mask for _, mask, _ in filed], [mask for _, mask, _ in tested])
        for key, mask, _ in filed:
            homes[mask].append((mask, key))
        guard = _every_field(len(rank), _GUARD)
        return all(_absorbed(key | guard, _inside(mask, scans[mask]), guard)
                   for key, mask, _ in tested)


def collapse_exponents(p: AbsorptivePoly) -> AbsorptivePoly:
    """p with every exponent set to 1, re-pruned: its image in the free
    distributive lattice, through which every valuation into a semiring with
    idempotent multiplication factors."""
    return AbsorptivePoly(Monomial((v, 1) for v, _ in m.exps) for m, _ in p.terms)


def _prune(monomials: Iterable[Monomial]) -> List[Monomial]:
    """The minimal monomials of ``monomials`` under absorption, the first of
    equal ones, in input order.  The prune runs on packed keys
    (``_minimal``), in any rank order, and keeps the input's own monomials,
    so nothing is decoded."""
    rank: Dict[VarKey, int] = {}
    packed = [(_packed(m, rank), m) for m in monomials]
    ranks = len(rank)
    first: Dict[int, Monomial] = {}
    acc: Dict[int, int] = {}
    for (key, mask, degree), m in packed:
        if key not in first:
            first[key] = m
            acc[key] = degree << ranks | mask
    kept = _minimal(acc, ranks)
    return [m for key, m in first.items() if key in kept]


class NatPoly(_Poly):
    """Polynomial with natural coefficients; no quotient."""

    __slots__ = ()

    def __init__(self, terms: Iterable[Tuple[Monomial, int]]):
        kept = []
        for m, c in terms:
            if c < 0:
                raise PreconditionError("negative coefficient")
            if c:
                kept.append((m, c))
        self.terms = tuple(_decoded(*_product(kept, _UNIT, quotient=False)))

    @classmethod
    def const(cls, c: int) -> "NatPoly":
        return cls(((Monomial.unit(), c),))

    def add(self, other: "NatPoly") -> "NatPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return NatPoly._of(_merged(self.terms, other.terms))

    def mul(self, other: "NatPoly") -> "NatPoly":
        return NatPoly._of_product(*_product(self.terms, other.terms, quotient=False))

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
