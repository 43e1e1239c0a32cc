"""Finite semiring interpretations over interned integer universes.

Each atom is stored as its (positive, negative) literal pair.  A builder given
one literal's value (atom tables, padding, files, enumeration) makes the pair
with `_literal_pair`, so what it builds is model-defining.  Interpretations
used by the provenance machinery may carry explicit values on both sides
(they are consistent in the quotient sense rather than model-defining).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    CarrierMismatch,
    GuardExceeded,
    NotModelDefining,
    PreconditionError,
)
from .formulas import Atom, Formula, subformulas
from .semirings import Semiring, SemiringHom

AtomKey = Tuple[str, Tuple[int, ...]]

ENUMERATION_GUARD = 10**6
MAX_ENUM_ATOMS = 16


@dataclass(frozen=True)
class Vocabulary:
    relations: Tuple[Tuple[str, int], ...]

    def __init__(self, relations):
        if isinstance(relations, dict):
            relations = tuple(sorted(relations.items()))
        else:
            relations = tuple(relations)
        names = [r for r, _ in relations]
        if len(set(names)) != len(names):
            raise PreconditionError("duplicate relation names")
        for name, arity in relations:
            if arity < 1:
                raise PreconditionError(f"arity of {name} must be >= 1")
        object.__setattr__(self, "relations", relations)

    def arity(self, name: str) -> int:
        for r, a in self.relations:
            if r == name:
                return a
        raise PreconditionError(f"unknown relation {name!r}")

    def names(self) -> List[str]:
        return [r for r, _ in self.relations]

    def check_formula(self, f: Formula):
        for g in subformulas(f):
            if isinstance(g, Atom):
                if self.arity(g.rel) != len(g.args):
                    raise PreconditionError(
                        f"arity mismatch: {g.rel} expects {self.arity(g.rel)} arguments"
                    )

    def atoms(self, universe: Sequence[int]) -> List[AtomKey]:
        out = []
        for rel, arity in self.relations:
            for args in itertools.product(universe, repeat=arity):
                out.append((rel, args))
        return out

    @staticmethod
    def of_formula(*formulas: Formula) -> "Vocabulary":
        rels = {}
        for g in itertools.chain(*(subformulas(m) for m in formulas)):
            if isinstance(g, Atom):
                prev = rels.setdefault(g.rel, len(g.args))
                if prev != len(g.args):
                    raise PreconditionError(f"inconsistent arity for {g.rel}")
        if not rels:
            rels = {"R": 1}
        return Vocabulary(rels)


class Interpretation:
    """A literal valuation over a finite universe.

    `table` maps atom keys to (positive value, negative value) pairs; atoms
    not in the table take the default pair.
    """

    def __init__(
        self,
        semiring: Semiring,
        universe: Sequence[int],
        vocab: Vocabulary,
        table: Dict[AtomKey, Tuple[object, object]],
        default: Optional[Tuple[object, object]] = None,
        names: Optional[Dict[int, str]] = None,
    ):
        self.semiring = semiring
        self.universe = tuple(universe)
        if len(set(self.universe)) != len(self.universe):
            raise PreconditionError("universe elements must be distinct")
        self.vocab = vocab
        self.table = dict(table)
        self.default = default if default is not None else (semiring.zero, semiring.one)
        self.names = dict(names) if names else {}
        for key, (pos, neg) in self.table.items():
            rel, args = key
            if len(args) != vocab.arity(rel):
                raise PreconditionError(f"arity mismatch on {key}")
            if any(a not in self.universe for a in args):
                raise PreconditionError(f"atom {key} uses elements outside the universe")
            semiring.check(pos)
            semiring.check(neg)
        semiring.check(self.default[0])
        semiring.check(self.default[1])

    @classmethod
    def _unchecked(cls, semiring, universe, vocab, table, default, names=None):
        """__init__ without its checks, for a tuple universe, a fresh table
        and a default that are valid by construction."""
        out = cls.__new__(cls)
        out.semiring, out.universe, out.vocab = semiring, universe, vocab
        out.table, out.default, out.names = table, default, dict(names) if names else {}
        return out

    @classmethod
    def from_atoms(
        cls,
        semiring: Semiring,
        universe: Sequence[int],
        vocab: Vocabulary,
        atom_values: Dict[AtomKey, object],
        names: Optional[Dict[int, str]] = None,
    ) -> "Interpretation":
        """Positive atoms get the given (nonzero) value; everything else
        defaults to false (0 positive, 1 negative)."""
        table = {key: _literal_pair(semiring, semiring.check(value))
                 for key, value in atom_values.items()}
        return cls(semiring, universe, vocab, table, names=names)

    def pair(self, rel: str, args: Tuple[int, ...]) -> Tuple[object, object]:
        return self.table.get((rel, tuple(args)), self.default)

    def literal(self, rel: str, args: Tuple[int, ...], positive: bool = True):
        args = tuple(args)
        for a in args:
            if a not in self.universe:
                raise PreconditionError(f"element {a} not in universe")
        pos, neg = self.pair(rel, args)
        return pos if positive else neg

    def atom_keys(self) -> List[AtomKey]:
        return self.vocab.atoms(self.universe)

    def element_name(self, e: int) -> str:
        return self.names.get(e, str(e))

    # -- validation ---------------------------------------------------------

    def is_model_defining(self) -> bool:
        return self.validate() == []

    def validate(self) -> List[str]:
        """Model-defining check: exactly one of each literal pair is zero."""
        zero = self.semiring.zero
        problems = []
        for rel, args in self.atom_keys():
            pos, neg = self.pair(rel, args)
            if (pos == zero) == (neg == zero):
                label = f"{rel}({','.join(self.element_name(a) for a in args)})"
                problems.append(label)
        return problems

    # -- transformations ----------------------------------------------------

    def restrict(self, subset: Iterable[int]) -> "Interpretation":
        keep = set(subset)
        subset = tuple(sorted(keep))
        if any(a not in self.universe for a in subset):
            raise PreconditionError("subset must be contained in the universe")
        table = {
            key: val
            for key, val in self.table.items()
            if all(a in keep for a in key[1])
        }
        return Interpretation._unchecked(
            self.semiring, subset, self.vocab, table, self.default, self.names
        )

    def pad(self, count: int, fill) -> "Interpretation":
        """Extend by `count` fresh elements; every atom touching a new element
        gets `fill` (negation zero), or the dual pair when fill is zero."""
        self.semiring.check(fill)
        start = max(self.universe, default=0) + 1
        fresh = range(start, start + count)
        universe = self.universe + tuple(fresh)
        pair = _literal_pair(self.semiring, fill)
        table = dict(self.table)
        for rel, arity in self.vocab.relations:
            for args in itertools.product(universe, repeat=arity):
                if any(a in fresh for a in args):
                    table[(rel, args)] = pair
        return Interpretation(self.semiring, universe, self.vocab, table, self.default, self.names)

    def relabel(self, mapping: Dict[int, int]) -> "Interpretation":
        """Rename universe elements along a bijection."""
        universe = tuple(mapping.get(e, e) for e in self.universe)
        table = {
            (rel, tuple(mapping.get(a, a) for a in args)): val
            for (rel, args), val in self.table.items()
        }
        return Interpretation(self.semiring, universe, self.vocab, table, self.default)

    def with_values(self, replace) -> "Interpretation":
        """Apply a function to every stored literal value (both sides)."""
        return _mapped(self, self.semiring, replace)

    def __repr__(self):
        sr = self.semiring
        bits = []
        for rel, args in self.atom_keys():
            pos, neg = self.pair(rel, args)
            label = f"{rel}({','.join(self.element_name(a) for a in args)})"
            if neg == sr.zero:
                bits.append(f"{label}={sr.format_value(pos)}")
            elif pos == sr.zero:
                bits.append(f"~{label}={sr.format_value(neg)}")
            else:
                bits.append(f"{label}={sr.format_value(pos)}/~{sr.format_value(neg)}")
        universe = " ".join(self.element_name(e) for e in self.universe)
        return f"<{sr.id} interp [{universe}] {' '.join(bits)}>"


def _literal_pair(semiring: Semiring, value, positive: bool = True) -> Tuple[object, object]:
    """The (positive, negative) pair of an atom whose literal of that sign has
    `value`: the dual literal is zero, or one when `value` is zero."""
    pair = (semiring.zero, semiring.one) if value == semiring.zero else (value, semiring.zero)
    return pair if positive else pair[::-1]


def _mapped(interp: Interpretation, semiring: Semiring, f) -> Interpretation:
    """`interp` over `semiring`, with `f` applied to every stored value and the default."""
    table = {key: (f(pos), f(neg)) for key, (pos, neg) in interp.table.items()}
    default = (f(interp.default[0]), f(interp.default[1]))
    return Interpretation(semiring, interp.universe, interp.vocab, table, default, interp.names)


def is_subinterpretation(pa: Interpretation, pb: Interpretation) -> bool:
    """pa is an induced subinterpretation of pb: universe contained and all
    pa-literals agree."""
    if pa.semiring.id != pb.semiring.id or pa.vocab != pb.vocab:
        raise PreconditionError("same semiring and vocabulary required")
    if not set(pa.universe) <= set(pb.universe):
        return False
    return all(pa.pair(rel, args) == pb.pair(rel, args) for rel, args in pa.atom_keys())


def check_interp_hom(
    g: Dict[int, int], pa: Interpretation, pb: Interpretation
) -> str:
    """Classify an element map as 'none', 'hom', 'strong_hom' or 'embedding'.

    hom: for every atom, the sum of its g-preimage atom values is at most the
    image atom's value (natural order).  strong: literal values preserved
    exactly.  embedding: strong and injective.
    """
    if pa.semiring.id != pb.semiring.id or pa.vocab != pb.vocab:
        raise PreconditionError("same semiring and vocabulary required")
    if set(g) != set(pa.universe):
        raise PreconditionError("map must be total on the source universe")
    if any(v not in pb.universe for v in g.values()):
        raise PreconditionError("map must land in the target universe")
    sr = pa.semiring
    sums: Dict[AtomKey, object] = {}  # image atom -> its preimages' sum, in atom order
    for rel, args in pa.atom_keys():
        image = (rel, tuple(g[a] for a in args))
        sums[image] = sr.add(sums.get(image, sr.zero), pa.literal(rel, args))
    if not all(sr.leq(total, pb.literal(*image)) for image, total in sums.items()):
        return "none"
    strong = all(
        pa.pair(rel, args) == pb.pair(rel, tuple(g[a] for a in args))
        for rel, args in pa.atom_keys()
    )
    if not strong:
        return "hom"
    injective = len(set(g.values())) == len(g)
    return "embedding" if injective else "strong_hom"


def compose_hom(
    h: SemiringHom, interp: Interpretation, require_model_defining: bool = True
) -> Interpretation:
    """Literal-wise image interpretation over h's target semiring."""
    if h.source.id != interp.semiring.id:
        raise PreconditionError(
            f"hom source {h.source.id} does not match interpretation {interp.semiring.id}"
        )
    out = _mapped(interp, h.target, h)
    if require_model_defining:
        problems = out.validate()
        if problems:
            raise NotModelDefining(
                f"image is not model-defining at {problems[0]}", problems[0]
            )
    return out


def _atom_choices(semiring: Semiring, value_set) -> list:
    """The literal pairs an enumerated atom can take, checked once against the
    carrier (with the default pair), so interpretations built from them need
    no check."""
    zero = semiring.zero
    if not value_set:
        raise PreconditionError("value_set must not be empty")
    if any(v == zero for v in value_set):
        raise PreconditionError("value_set must not contain 0")
    for v in (zero, semiring.one, *value_set):
        semiring.check(v)
    return [_literal_pair(semiring, v, positive) for positive in (True, False) for v in value_set]


def count_interpretations(vocab: Vocabulary, size: int, value_set) -> int:
    """How many interpretations `enumerate_interpretations` yields at this size."""
    n_atoms = len(vocab.atoms(range(1, size + 1)))
    return (2 * len(value_set)) ** n_atoms


def enumerate_interpretations(
    semiring: Semiring,
    vocab: Vocabulary,
    size: int,
    value_set: Sequence,
    guard: int = ENUMERATION_GUARD,
) -> Iterator[Interpretation]:
    """All model-defining interpretations over universe {1..size} whose atoms
    take a value from value_set on one side and zero on the other."""
    universe = tuple(range(1, size + 1))
    atoms = vocab.atoms(universe)
    if len(atoms) > MAX_ENUM_ATOMS:
        raise GuardExceeded(f"{len(atoms)} atoms exceed the enumeration guard")
    total = count_interpretations(vocab, size, value_set)
    if total > guard:
        raise GuardExceeded(f"{total} interpretations exceed the guard {guard}")
    choices = _atom_choices(semiring, value_set)
    default = (semiring.zero, semiring.one)
    for combo in itertools.product(choices, repeat=len(atoms)):
        yield Interpretation._unchecked(semiring, universe, vocab, dict(zip(atoms, combo)), default)


def random_interpretation(
    semiring: Semiring,
    vocab: Vocabulary,
    size: int,
    value_set: Sequence,
    rng: random.Random,
) -> Interpretation:
    universe = tuple(range(1, size + 1))
    choices = _atom_choices(semiring, value_set)
    table = {key: rng.choice(choices) for key in vocab.atoms(universe)}
    default = (semiring.zero, semiring.one)
    return Interpretation._unchecked(semiring, universe, vocab, table, default)


# ---------------------------------------------------------------------------
# Interpretation files
# ---------------------------------------------------------------------------


def parse_interpretation(text: str, semiring: Optional[Semiring] = None) -> Interpretation:
    """Line format::

        semiring: viterbi
        universe: a b
        R(a) = 1/2
        ~R(b) = 1/4
        default: 0      # unlisted atoms: zero, negation one
    """
    import re

    from .semirings import semiring_from_id

    sr = semiring
    universe_names: Optional[List[str]] = None
    atom_lines = []
    default_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("semiring:"):
            declared = line.split(":", 1)[1].strip()
            if sr is None:
                sr = semiring_from_id(declared)
        elif line.startswith("universe:"):
            universe_names = line.split(":", 1)[1].split()
        elif line.startswith("default:"):
            default_line = (lineno, line.split(":", 1)[1].strip())
        else:
            m = re.match(r"^(~?)([A-Za-z_][A-Za-z0-9_]*)\(([^)]*)\)\s*=\s*(.+)$", line)
            if not m:
                raise PreconditionError(f"line {lineno}: cannot parse {line!r}")
            negated, rel, args, value = m.groups()
            atom_lines.append((lineno, bool(negated), rel, [a.strip() for a in args.split(",")], value.strip()))
    if sr is None:
        raise PreconditionError("interpretation file missing 'semiring:' line")
    if universe_names is None:
        raise PreconditionError("interpretation file missing 'universe:' line")
    elements = {name: i + 1 for i, name in enumerate(universe_names)}
    names = {i: n for n, i in elements.items()}
    arities: Dict[str, int] = {}
    for lineno, _, rel, args, _ in atom_lines:
        arities.setdefault(rel, len(args))
        if arities[rel] != len(args):
            raise PreconditionError(f"line {lineno}: inconsistent arity for {rel}")
    vocab = Vocabulary(arities) if arities else Vocabulary({"R": 1})
    table: Dict[AtomKey, Tuple[object, object]] = {}
    for lineno, negated, rel, args, value_text in atom_lines:
        try:
            ids = tuple(elements[a] for a in args)
        except KeyError as exc:
            raise PreconditionError(f"line {lineno}: unknown element {exc}") from exc
        table[(rel, ids)] = _literal_pair(sr, _parsed_value(sr, lineno, value_text), not negated)
    default = None if default_line is None else _literal_pair(sr, _parsed_value(sr, *default_line))
    return Interpretation(sr, tuple(elements.values()), vocab, table, default, names)


def _parsed_value(semiring: Semiring, lineno: int, text: str):
    try:
        return semiring.parse_value(text)
    except CarrierMismatch as exc:
        raise CarrierMismatch(f"line {lineno}: {exc}") from None


def load_interpretation(path: str, semiring: Optional[Semiring] = None) -> Interpretation:
    with open(path, encoding="utf-8") as fh:
        return parse_interpretation(fh.read(), semiring)
