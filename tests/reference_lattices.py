"""A frozen copy of `semlog.lattices` before the order became bitmasks and the
weakly separating homomorphism became a construction, kept as the oracle of
the differential tests in test_lattices.py: the `FiniteLattice` constructor
with its n x n `_rel` closure and its `_bound` search for joins and meets,
and the guarded search `find_weakly_separating_hom`, which tried every map
L -> S3 against every subset of L.  Do not optimize it: its value is that it
is the old semantics, line for line."""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

from semlog.errors import GuardExceeded, PreconditionError
from semlog.lattices import LatticeSemiring
from semlog.semirings import S3, SemiringHom


class FiniteLattice:
    """Immutable finite bounded distributive lattice over named elements."""

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[tuple[str, str]]):
        self.elements = tuple(dict.fromkeys(elements))
        if len(self.elements) < 2:
            raise PreconditionError("a bounded lattice needs at least 2 elements")
        idx = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for a, b in leq_pairs:
            if a not in idx or b not in idx:
                raise PreconditionError(f"unknown element in leq pair ({a}, {b})")
            rel[idx[a]][idx[b]] = True
        # transitive closure
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    for j in range(n):
                        if rel[k][j]:
                            rel[i][j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j] and rel[j][i]:
                    raise PreconditionError(
                        f"leq is not antisymmetric on ({self.elements[i]}, {self.elements[j]})"
                    )
        self._idx = idx
        self._rel = rel
        self._join = {}
        self._meet = {}
        for i in range(n):
            for j in range(n):
                self._join[i, j] = self._bound(i, j, upper=True)
                self._meet[i, j] = self._bound(i, j, upper=False)
        bottoms = [i for i in range(n) if all(rel[i][j] for j in range(n))]
        tops = [i for i in range(n) if all(rel[j][i] for j in range(n))]
        if len(bottoms) != 1 or len(tops) != 1:
            raise PreconditionError("lattice must have unique bottom and top")
        self._bottom = bottoms[0]
        self._top = tops[0]
        self._check_distributive()

    def _bound(self, i: int, j: int, upper: bool) -> int:
        n = len(self.elements)
        rel = self._rel
        if upper:
            cands = [k for k in range(n) if rel[i][k] and rel[j][k]]
            minimal = [k for k in cands if all(not (rel[m][k] and m != k) for m in cands)]
        else:
            cands = [k for k in range(n) if rel[k][i] and rel[k][j]]
            minimal = [k for k in cands if all(not (rel[k][m] and m != k) for m in cands)]
        if len(minimal) != 1:
            a, b = self.elements[i], self.elements[j]
            kind = "join" if upper else "meet"
            raise PreconditionError(f"{kind} of ({a}, {b}) does not exist or is not unique")
        return minimal[0]

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
        return self._rel[self._idx[a]][self._idx[b]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._idx[a], self._idx[b]]]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._idx[a], self._idx[b]]]

    def has_zero_divisors(self) -> bool:
        bot = self.bottom
        for a in self.elements:
            for b in self.elements:
                if a != bot and b != bot and self.meet(a, b) == bot:
                    return True
        return False

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<lattice {' '.join(self.elements)}>"


SEPARATION_GUARD = 12


def _subsets(items):
    """The non-empty subsets of items."""
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


def _hom_candidates(lattice: FiniteLattice):
    """All maps L -> S3 with kernel {bottom} that are lattice homomorphisms."""
    others = [e for e in lattice.elements if e != lattice.bottom]
    for values in itertools.product((1, 2), repeat=len(others)):
        table = dict(zip(others, values))
        table[lattice.bottom] = 0
        if table[lattice.top] != 2:
            continue
        ok = True
        for a in lattice.elements:
            for b in lattice.elements:
                if table[lattice.join(a, b)] != max(table[a], table[b]):
                    ok = False
                    break
                if table[lattice.meet(a, b)] != min(table[a], table[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield table


def find_weakly_separating_hom(
    lattice: FiniteLattice, s: str, t: str, semiring: Optional[LatticeSemiring] = None
) -> Optional[SemiringHom]:
    """Search for h: L -> S3 that weakly <=-separates s from t.

    The returned hom satisfies (1) kernel {bottom}; (2) h(s) > h(t); (3) every
    X with join X = s has a member mapped to h(s); (4) every X with meet X = t
    has a member mapped to h(t).  The search is exhaustive over all candidate
    maps and all subsets, hence exponential in |L|; a guard rejects |L| > 12.

    Returns None only when a precondition fails (s <= t, or zero divisors);
    the failure reason is raised instead of silently returning.
    """
    if len(lattice) > SEPARATION_GUARD:
        raise GuardExceeded(f"|L| = {len(lattice)} exceeds guard {SEPARATION_GUARD}")
    if s == t or lattice.leq(s, t):
        raise PreconditionError(f"need s not<= t, got {s} <= {t}")
    if lattice.has_zero_divisors():
        raise PreconditionError(
            "lattice has divisors of 0; adjoin a bottom element first"
        )
    elems = lattice.elements
    # No empty X: its join (bottom) is never s, nor its meet (top) t, as s not<= t.
    join_sets = [X for X in _subsets(elems) if functools.reduce(lattice.join, X) == s]
    meet_sets = [X for X in _subsets(elems) if functools.reduce(lattice.meet, X) == t]
    sr = semiring if semiring is not None else LatticeSemiring(lattice)
    for table in _hom_candidates(lattice):
        if not table[s] > table[t]:
            continue
        if any(all(table[x] != table[s] for x in X) for X in join_sets):
            continue
        if any(all(table[x] != table[t] for x in X) for X in meet_sets):
            continue
        return SemiringHom(sr, S3, (lambda tb: (lambda v: tb[v]))(table), f"sep_{s}_{t}")
    return None
