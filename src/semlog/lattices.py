"""Finite bounded distributive lattices and lattice semirings.

A lattice file is line-oriented::

    elements: a b c d
    leq: a b        # one line per covering pair (a covered by b)

The order is held as one bitmask per element (its down-set), closed
transitively; join and meet are the elements whose up- or down-mask is the
AND of their arguments', and the tables are validated (existence,
uniqueness, distributivity).  A weakly separating homomorphism onto S3 is
built from one join-irreducible element.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import PreconditionError
from .semirings import S3, Semiring, SemiringHom


class FiniteLattice:
    """Immutable finite bounded distributive lattice over named elements."""

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[tuple[str, str]]):
        self.elements = tuple(dict.fromkeys(elements))
        if len(self.elements) < 2:
            raise PreconditionError("a bounded lattice needs at least 2 elements")
        idx = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        below = [1 << i for i in range(n)]  # bit k of below[i]: k <= i
        for a, b in leq_pairs:
            if a not in idx or b not in idx:
                raise PreconditionError(f"unknown element in leq pair ({a}, {b})")
            below[idx[b]] |= 1 << idx[a]
        for k in range(n):  # Warshall, one mask per row
            for i in range(n):
                if below[i] >> k & 1:
                    below[i] |= below[k]
        above = [sum(1 << i for i in range(n) if below[i] >> k & 1) for k in range(n)]
        for i in range(n):  # report the least i, then the least j > i, with i <= j <= i
            cycle = below[i] & above[i] & -(2 << i)
            if cycle:
                j = (cycle & -cycle).bit_length() - 1
                raise PreconditionError(
                    f"leq is not antisymmetric on ({self.elements[i]}, {self.elements[j]})"
                )
        with_below = {m: i for i, m in enumerate(below)}
        with_above = {m: i for i, m in enumerate(above)}
        self._idx = idx
        self._below = below
        self._join, self._meet = {}, {}
        # The meet of i and j is the element whose down-mask is the AND of
        # theirs; the join, the element whose up-mask is the AND of theirs.
        bounds = (("join", self._join, above, with_above), ("meet", self._meet, below, with_below))
        for i in range(n):
            for j in range(n):
                for kind, table, masks, by_mask in bounds:
                    k = by_mask.get(masks[i] & masks[j])
                    if k is None:
                        a, b = self.elements[i], self.elements[j]
                        raise PreconditionError(
                            f"{kind} of ({a}, {b}) does not exist or is not unique"
                        )
                    table[i, j] = k
        full = (1 << n) - 1
        self._bottom = with_above[full]
        self._top = with_below[full]
        self._check_distributive()
        # j is join-irreducible when the elements strictly below it have a
        # greatest one; the bottom has none below it, so it is never listed.
        self.join_irreducibles = tuple(
            e for i, e in enumerate(self.elements) if (below[i] ^ 1 << i) in with_below
        )

    def _check_distributive(self):
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self._meet[i, self._join[j, k]]
                    rhs = self._join[self._meet[i, j], self._meet[i, k]]
                    if lhs != rhs:
                        raise PreconditionError(
                            "lattice is not distributive at "
                            f"({self.elements[i]}, {self.elements[j]}, {self.elements[k]})"
                        )

    @property
    def bottom(self) -> str:
        return self.elements[self._bottom]

    @property
    def top(self) -> str:
        return self.elements[self._top]

    def leq(self, a: str, b: str) -> bool:
        return bool(self._below[self._idx[b]] >> self._idx[a] & 1)

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._idx[a], self._idx[b]]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._idx[a], self._idx[b]]]

    def has_zero_divisors(self) -> bool:
        others = [i for i in range(len(self.elements)) if i != self._bottom]
        return any(self._meet[i, j] == self._bottom for i in others for j in others)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<lattice {' '.join(self.elements)}>"


def chain_lattice(names: Sequence[str]) -> FiniteLattice:
    return FiniteLattice(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def diamond_lattice() -> FiniteLattice:
    """0 < a, b < 1 with a, b incomparable."""
    return FiniteLattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


class LatticeSemiring(Semiring):
    """The semiring (L, join, meet, bottom, top) of a finite lattice."""

    additively_idempotent = True
    absorptive = True
    multiplicatively_idempotent = True

    def __init__(self, lattice: FiniteLattice, name: str = "lattice"):
        self.lattice = lattice
        self.id = name
        self.zero = lattice.bottom
        self.one = lattice.top
        self.linearly_ordered = all(
            lattice.leq(a, b) or lattice.leq(b, a)
            for a in lattice.elements
            for b in lattice.elements
        )

    def add(self, a, b):
        return self.lattice.join(a, b)

    def mul(self, a, b):
        return self.lattice.meet(a, b)

    def leq(self, s, t):
        return self.lattice.leq(s, t)

    def contains(self, v):
        return v in self.lattice._idx

    def carrier(self):
        return list(self.lattice.elements)

    def parse_value(self, text):
        return self.check(text)

    def random_value(self, rng, nonzero=False):
        options = [e for e in self.lattice.elements if not (nonzero and e == self.zero)]
        return rng.choice(options)


def parse_lattice_file(text: str) -> FiniteLattice:
    elements = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            elements = line.split(":", 1)[1].split()
        elif line.startswith("leq:"):
            parts = line.split(":", 1)[1].split()
            if len(parts) != 2:
                raise PreconditionError(f"line {lineno}: leq wants two elements")
            pairs.append((parts[0], parts[1]))
        else:
            raise PreconditionError(f"line {lineno}: unrecognized lattice line {line!r}")
    if elements is None:
        raise PreconditionError("lattice file missing 'elements:' line")
    return FiniteLattice(elements, pairs)


def lattice_semiring_from_file(path: str) -> LatticeSemiring:
    with open(path, encoding="utf-8") as fh:
        lat = parse_lattice_file(fh.read())
    return LatticeSemiring(lat, name=f"lattice:{path}")


def adjoin_bottom(lattice: FiniteLattice, name: str = "0*"):
    """Extend by a new global minimum; returns (L*, h*) with h*: L* -> L
    mapping the new bottom to the old one and fixing everything else."""
    if name in lattice.elements:
        name = name + "*"
    starred = FiniteLattice(
        (name,) + lattice.elements,
        [(name, lattice.bottom)]
        + [
            (a, b)
            for a in lattice.elements
            for b in lattice.elements
            if a != b and lattice.leq(a, b)
        ],
    )
    old_bottom = lattice.bottom
    sr_star = LatticeSemiring(starred, name="lattice*")
    sr = LatticeSemiring(lattice)
    h_star = SemiringHom(
        sr_star, sr, lambda v: old_bottom if v == name else v, "h_star"
    )
    return starred, h_star


def find_weakly_separating_hom(
    lattice: FiniteLattice, s: str, t: str, semiring: Optional[LatticeSemiring] = None
) -> SemiringHom:
    """Build h: L -> S3 that weakly <=-separates s from t.

    The returned hom satisfies (1) kernel {bottom}; (2) h(s) > h(t); (3) every
    X with join X = s has a member mapped to h(s); (4) every X with meet X = t
    has a member mapped to h(t).  It is h_j for a join-irreducible j: 0 at the
    bottom, 2 on the up-set of j (a prime filter, by Birkhoff), 1 elsewhere.
    Without zero divisors the bottom is meet-irreducible, so the maps meeting
    (1)-(4) are exactly the h_j meeting (2): j ranges over every
    join-irreducible when t is the bottom, else over those with j <= s and
    j not<= t.  The j picked gives the lexicographically least table over the
    non-bottom elements in element order.

    Raises PreconditionError when s <= t or the lattice has zero divisors.
    """
    if s == t or lattice.leq(s, t):
        raise PreconditionError(f"need s not<= t, got {s} <= {t}")
    if lattice.has_zero_divisors():
        raise PreconditionError("lattice has divisors of 0; adjoin a bottom element first")
    bottom = lattice.bottom
    others = [x for x in lattice.elements if x != bottom]
    j = min(
        (j for j in lattice.join_irreducibles
         if t == bottom or (lattice.leq(j, s) and not lattice.leq(j, t))),
        key=lambda j: [lattice.leq(j, x) for x in others],
    )
    table = {x: 2 if lattice.leq(j, x) else 1 for x in others}
    table[bottom] = 0
    sr = semiring if semiring is not None else LatticeSemiring(lattice)
    return SemiringHom(sr, S3, table.__getitem__, f"sep_{s}_{t}")
