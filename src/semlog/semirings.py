"""Commutative semirings, their natural order, and semiring homomorphisms.

All carriers are exact: rationals are `fractions.Fraction`, chain levels and
naturals are `int`, infinity is the `INF` marker.  Every operation is a pure
function on immutable values, so semiring objects can be shared freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

from .errors import CarrierMismatch, PreconditionError

INF = float("inf")  # marker only; never mixed into arithmetic


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise CarrierMismatch(f"not an exact rational: {v!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CarrierMismatch(f"not an integer: {text!r}") from None


class Semiring:
    """A commutative semiring (S, +, ., 0, 1) with its natural order.

    The natural order is s <= t iff s + r = t for some r; subclasses provide
    it in closed form.  Values are plain Python objects (bool, int, Fraction,
    lattice element names, polynomial objects); `check` validates membership.
    """

    id: str = "?"
    additively_idempotent = False
    absorptive = False
    multiplicatively_idempotent = False
    linearly_ordered = False

    zero: Any = None
    one: Any = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sum(self, values: Iterable):
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out

    def prod(self, values: Iterable):
        out = self.one
        for v in values:
            out = self.mul(out, v)
        return out

    def power(self, v, n: int):
        if n < 0:
            raise PreconditionError("negative power")
        out = self.one
        for _ in range(n):
            out = self.mul(out, v)
        return out

    def leq(self, s, t) -> bool:
        """The natural order s <= t."""
        raise NotImplementedError

    def lt(self, s, t) -> bool:
        return self.leq(s, t) and s != t

    def contains(self, v) -> bool:
        raise NotImplementedError

    def check(self, v):
        if not self.contains(v):
            raise CarrierMismatch(f"{v!r} is not a {self.id} value")
        return v

    def carrier(self) -> Optional[list]:
        """The full carrier for finite semirings, else None."""
        return None

    def parse_value(self, text: str):
        raise NotImplementedError

    def format_value(self, v) -> str:
        return str(v)

    def random_value(self, rng: random.Random, nonzero: bool = False):
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.id}>"


class BooleanSemiring(Semiring):
    id = "boolean"
    additively_idempotent = True
    absorptive = True
    multiplicatively_idempotent = True
    linearly_ordered = True
    zero = False
    one = True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def leq(self, s, t):
        return (not s) or t

    def contains(self, v):
        return isinstance(v, bool)

    def carrier(self):
        return [False, True]

    def parse_value(self, text):
        if text in ("0", "false"):
            return False
        if text in ("1", "true"):
            return True
        raise CarrierMismatch(f"bad boolean value {text!r}")

    def format_value(self, v):
        return "1" if v else "0"

    def random_value(self, rng, nonzero=False):
        return True if nonzero else rng.random() < 0.5


class ChainSemiring(Semiring):
    """Min-max semiring on the chain 0 < 1 < ... < k-1."""

    additively_idempotent = True
    absorptive = True
    multiplicatively_idempotent = True
    linearly_ordered = True

    def __init__(self, k: int):
        if k < 2:
            raise PreconditionError("chain needs at least 2 levels")
        self.k = k
        self.id = f"chain:{k}"
        self.zero = 0
        self.one = k - 1

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return min(a, b)

    def leq(self, s, t):
        return s <= t

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.k

    def carrier(self):
        return list(range(self.k))

    def parse_value(self, text):
        return self.check(_int(text))

    def random_value(self, rng, nonzero=False):
        return rng.randrange(1 if nonzero else 0, self.k)


class S3Semiring(ChainSemiring):
    """The three-element min-max semiring {0, eps, 1}; eps is level 1."""

    def __init__(self):
        super().__init__(3)
        self.id = "s3"

    EPS = 1

    def parse_value(self, text):
        if text in ("e", "eps"):
            return 1
        return super().parse_value(text)

    def format_value(self, v):
        return {0: "0", 1: "e", 2: "1"}[v]


class _UnitIntervalSemiring(Semiring):
    """The [0,1] carriers (exact rationals) with max as addition, 0 and 1 as
    neutral elements and the numeric order as natural order; subclasses give
    the multiplication."""

    additively_idempotent = True
    absorptive = True
    linearly_ordered = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return max(a, b)

    def leq(self, s, t):
        return s <= t

    def lt(self, s, t):
        return s < t

    def contains(self, v):
        return isinstance(v, (Fraction, int)) and not isinstance(v, bool) and 0 <= v <= 1

    def parse_value(self, text):
        return self.check(_frac(text))

    def format_value(self, v):
        return str(Fraction(v))

    def random_value(self, rng, nonzero=False):
        q = rng.randrange(1, 13)
        v = Fraction(rng.randrange(0, q + 1), q)
        if nonzero and v == self.zero:
            v = Fraction(1, q) if self.zero == 0 else Fraction(q - 1, q)
        return v


class FuzzySemiring(_UnitIntervalSemiring):
    id = "fuzzy"
    multiplicatively_idempotent = True

    def mul(self, a, b):
        return min(a, b)


class ViterbiSemiring(_UnitIntervalSemiring):
    id = "viterbi"

    def mul(self, a, b):
        return _frac(a * b)


class LukasiewiczSemiring(_UnitIntervalSemiring):
    id = "lukasiewicz"

    def mul(self, a, b):
        s = a + b - 1
        return self.zero if s <= 0 else _frac(s)


class DoubtSemiring(_UnitIntervalSemiring):
    """([0,1], min, s(+)t = min(s+t,1), 1, 0); the natural order is the
    reverse of the numeric order."""

    id = "doubt"
    zero = Fraction(1)
    one = Fraction(0)

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        s = a + b
        return self.zero if s >= 1 else _frac(s)

    def leq(self, s, t):
        return t <= s  # reversed

    def lt(self, s, t):
        return t < s


class TropicalSemiring(Semiring):
    """(nonnegative rationals + INF, min, +, INF, 0); natural order reversed."""

    id = "tropical"
    additively_idempotent = True
    absorptive = True
    linearly_ordered = True
    zero = INF
    one = Fraction(0)

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        if a is INF or a == INF or b is INF or b == INF:
            return INF
        return _frac(a + b)

    def leq(self, s, t):
        if s == INF:
            return True
        if t == INF:
            return s == INF
        return t <= s  # reversed

    def contains(self, v):
        if v == INF:
            return True
        return isinstance(v, (Fraction, int)) and not isinstance(v, bool) and v >= 0

    def parse_value(self, text):
        if text in ("inf", "oo"):
            return INF
        return self.check(_frac(text))

    def format_value(self, v):
        return "inf" if v == INF else str(Fraction(v))

    def random_value(self, rng, nonzero=False):
        if not nonzero and rng.random() < 0.1:
            return INF
        return Fraction(rng.randrange(0, 20), rng.randrange(1, 7))


class NatSemiring(Semiring):
    id = "nat"
    linearly_ordered = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def leq(self, s, t):
        return s <= t

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    def parse_value(self, text):
        return self.check(_int(text))

    def random_value(self, rng, nonzero=False):
        return rng.randrange(1 if nonzero else 0, 10)


class NatInfSemiring(Semiring):
    """Naturals extended by INF; sums absorb to INF, INF * 0 = 0."""

    id = "natinf"
    linearly_ordered = True
    zero = 0
    one = 1

    def add(self, a, b):
        if a == INF or b == INF:
            return INF
        return a + b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a == INF or b == INF:
            return INF
        return a * b

    def leq(self, s, t):
        if t == INF:
            return True
        if s == INF:
            return False
        return s <= t

    def contains(self, v):
        if v == INF:
            return True
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    def parse_value(self, text):
        if text in ("inf", "oo"):
            return INF
        return self.check(_int(text))

    def format_value(self, v):
        return "inf" if v == INF else str(v)

    def random_value(self, rng, nonzero=False):
        if rng.random() < 0.1:
            return INF
        return rng.randrange(1 if nonzero else 0, 10)


S3 = S3Semiring()
BOOLEAN = BooleanSemiring()
FUZZY = FuzzySemiring()
VITERBI = ViterbiSemiring()
LUKASIEWICZ = LukasiewiczSemiring()
DOUBT = DoubtSemiring()
TROPICAL = TropicalSemiring()
NAT = NatSemiring()
NATINF = NatInfSemiring()


@dataclass(frozen=True)
class SemiringHom:
    """A map between semiring carriers; `check_hom` verifies the axioms."""

    source: Semiring
    target: Semiring
    func: Callable[[Any], Any] = field(compare=False)
    name: str = "h"

    def __call__(self, v):
        return self.func(v)

    def __repr__(self):
        return f"<hom {self.name}: {self.source.id} -> {self.target.id}>"


def threshold_hom(kind: str) -> SemiringHom:
    """The S3 -> S3 threshold maps: geq_eps sends eps to 1, geq_one sends it to 0."""
    if kind == "geq_eps":
        return SemiringHom(S3, S3, lambda v: 0 if v == 0 else 2, "h_geq_eps")
    if kind == "geq_one":
        return SemiringHom(S3, S3, lambda v: 2 if v == 2 else 0, "h_geq_one")
    raise PreconditionError(f"unknown threshold kind {kind!r}")


def s3_embedding(target: Semiring, middle=None) -> SemiringHom:
    """Embed S3 into a lattice-like semiring: 0 -> zero, 1 -> one, eps -> middle.

    Any element strictly between zero and one works; fuzzy defaults to 1/2,
    finite lattices to their first non-extremal element.
    """
    if middle is None:
        if isinstance(target, FuzzySemiring):
            middle = Fraction(1, 2)
        else:
            carrier = target.carrier()
            if carrier is None:
                raise PreconditionError("need an explicit middle element")
            options = [v for v in carrier if v != target.zero and v != target.one]
            if not options:
                raise PreconditionError(
                    f"{target.id} has no element strictly between 0 and 1"
                )
            middle = options[0]
    target.check(middle)
    if middle == target.zero or middle == target.one:
        raise PreconditionError("middle element must differ from 0 and 1")
    table = {0: target.zero, 1: middle, 2: target.one}
    return SemiringHom(S3, target, lambda v: table[v], f"e_s3_{target.id}")


@dataclass
class HomReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def check_hom(h: SemiringHom, rng: Optional[random.Random] = None, samples: int = 200) -> HomReport:
    """Verify h(0)=0, h(1)=1 and distribution over +/* — exhaustively on finite
    carriers, on random samples otherwise."""
    src, tgt = h.source, h.target
    violations = []
    if h(src.zero) != tgt.zero:
        violations.append(("zero", src.zero, h(src.zero)))
    if h(src.one) != tgt.one:
        violations.append(("one", src.one, h(src.one)))
    carrier = src.carrier()
    if carrier is not None:
        pairs = [(a, b) for a in carrier for b in carrier]
    else:
        rng = rng or random.Random(0)
        pairs = [(src.random_value(rng), src.random_value(rng)) for _ in range(samples)]
    for a, b in pairs:
        if h(src.add(a, b)) != tgt.add(h(a), h(b)):
            violations.append(("add", a, b))
        if h(src.mul(a, b)) != tgt.mul(h(a), h(b)):
            violations.append(("mul", a, b))
    return HomReport(not violations, violations)


def natural_leq_witnessed(sr: Semiring, s, t) -> bool:
    """Decide s <= t by searching a witness r with s + r = t (finite carriers
    only).  Used as the independent oracle for the closed-form `leq`."""
    carrier = sr.carrier()
    if carrier is None:
        raise PreconditionError("witness search needs a finite carrier")
    return any(sr.add(s, r) == t for r in carrier)


def semiring_from_id(text: str) -> Semiring:
    """Resolve a CLI semiring identifier.

    Supported: boolean, s3, chain:<k>, lattice:<file>, fuzzy, viterbi,
    tropical, lukasiewicz, doubt, nat, natinf, natpoly, spoly:<n>.
    """
    fixed = {
        "boolean": BOOLEAN,
        "s3": S3,
        "fuzzy": FUZZY,
        "viterbi": VITERBI,
        "tropical": TROPICAL,
        "lukasiewicz": LUKASIEWICZ,
        "doubt": DOUBT,
        "nat": NAT,
        "natinf": NATINF,
    }
    if text in fixed:
        return fixed[text]
    if text.startswith("chain:"):
        try:
            return ChainSemiring(int(text.split(":", 1)[1]))
        except ValueError:
            raise PreconditionError(f"chain levels must be an integer: {text!r}") from None
    if text.startswith("lattice:"):
        from .lattices import lattice_semiring_from_file

        return lattice_semiring_from_file(text.split(":", 1)[1])
    if text == "natpoly":
        from .polynomials import NATPOLY

        return NATPOLY
    if text.startswith("spoly"):
        from .polynomials import SPOLY

        return SPOLY
    raise PreconditionError(f"unknown semiring id {text!r}")
