"""A frozen copy of the interpretation builders that `semlog.interpretations`
now routes through `_literal_pair` (one literal's value to its atom's pair)
and `_mapped` (one map over every stored value and the default), kept as the
oracle of the differential test in test_interpretations_reference.py:
`Interpretation.from_atoms`, `Interpretation.pad`, `parse_interpretation`,
`Interpretation.with_values`, `compose_hom`, and `lift_counterexample_to_s3`
with its `star_of`, which wrote an entry for every atom.  Methods became
functions of the interpretation.  `check_interp_hom`, which rescanned every
atom for each atom's preimage sum, is kept as the oracle of its one-pass
successor.  Do not optimize it: its value is that it is
the old semantics, line for line."""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Sequence, Tuple

from semlog.errors import NotModelDefining, PreconditionError
from semlog.evaluation import evaluate_set
from semlog.formulas import Formula
from semlog.interpretations import AtomKey, Interpretation, Vocabulary, is_subinterpretation
from semlog.lattices import (
    FiniteLattice,
    LatticeSemiring,
    adjoin_bottom,
    find_weakly_separating_hom,
)
from semlog.semirings import S3, Semiring, SemiringHom, semiring_from_id


def from_atoms(
    semiring: Semiring,
    universe: Sequence[int],
    vocab: Vocabulary,
    atom_values: Dict[AtomKey, object],
    names: Optional[Dict[int, str]] = None,
) -> Interpretation:
    table = {}
    for key, value in atom_values.items():
        semiring.check(value)
        if value == semiring.zero:
            table[key] = (semiring.zero, semiring.one)
        else:
            table[key] = (value, semiring.zero)
    return Interpretation(semiring, universe, vocab, table, names=names)


def pad(self: Interpretation, count: int, fill) -> Interpretation:
    self.semiring.check(fill)
    fresh = []
    nxt = max(self.universe, default=0) + 1
    for _ in range(count):
        fresh.append(nxt)
        nxt += 1
    universe = self.universe + tuple(fresh)
    if fill == self.semiring.zero:
        pair = (self.semiring.zero, self.semiring.one)
    else:
        pair = (fill, self.semiring.zero)
    table = dict(self.table)
    for rel, arity in self.vocab.relations:
        for args in itertools.product(universe, repeat=arity):
            if any(a in fresh for a in args):
                table[(rel, args)] = pair
    return Interpretation(self.semiring, universe, self.vocab, table, self.default, self.names)


def with_values(self: Interpretation, replace) -> Interpretation:
    table = {
        key: (replace(pos), replace(neg)) for key, (pos, neg) in self.table.items()
    }
    default = (replace(self.default[0]), replace(self.default[1]))
    return Interpretation(self.semiring, self.universe, self.vocab, table, default, self.names)


def compose_hom(
    h: SemiringHom, interp: Interpretation, require_model_defining: bool = True
) -> Interpretation:
    if h.source.id != interp.semiring.id:
        raise PreconditionError(
            f"hom source {h.source.id} does not match interpretation {interp.semiring.id}"
        )
    table = {
        key: (h(pos), h(neg)) for key, (pos, neg) in interp.table.items()
    }
    default = (h(interp.default[0]), h(interp.default[1]))
    out = Interpretation(
        h.target, interp.universe, interp.vocab, table, default, interp.names
    )
    if require_model_defining:
        problems = out.validate()
        if problems:
            raise NotModelDefining(
                f"image is not model-defining at {problems[0]}", problems[0]
            )
    return out


def parse_interpretation(text: str, semiring: Optional[Semiring] = None) -> Interpretation:
    sr = semiring
    universe_names: Optional[List[str]] = None
    atom_lines = []
    default_text = None
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
            default_text = line.split(":", 1)[1].strip()
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
        value = sr.parse_value(value_text)
        if negated:
            pair = (sr.zero, value) if value != sr.zero else (sr.one, sr.zero)
        else:
            pair = (value, sr.zero) if value != sr.zero else (sr.zero, sr.one)
        table[(rel, ids)] = pair
    default = (sr.zero, sr.one)
    if default_text is not None:
        dv = sr.parse_value(default_text)
        default = (sr.zero, sr.one) if dv == sr.zero else (dv, sr.zero)
    return Interpretation(sr, tuple(elements.values()), vocab, table, default, names)


def lift_counterexample_to_s3(
    lattice: FiniteLattice,
    pa: Interpretation,
    pb: Interpretation,
    sentences: Sequence[Formula],
) -> Tuple[Interpretation, Interpretation]:
    if not is_subinterpretation(pa, pb):
        raise PreconditionError("pa must be a subinterpretation of pb")
    sr = pa.semiring
    if not isinstance(sr, LatticeSemiring):
        raise PreconditionError("interpretations must live over a lattice semiring")
    va = evaluate_set(pa, sentences)
    vb = evaluate_set(pb, sentences)
    if sr.leq(va, vb):
        raise PreconditionError("the pair does not refute extension preservation")
    starred, h_star = adjoin_bottom(lattice)
    sr_star = h_star.source
    new_bottom = starred.bottom

    def star_of(interp: Interpretation) -> Interpretation:
        table = {}
        for key in interp.atom_keys():
            pos, neg = interp.pair(*key)
            table[key] = (
                new_bottom if pos == sr.zero else pos,
                new_bottom if neg == sr.zero else neg,
            )
        return Interpretation(sr_star, interp.universe, interp.vocab, table)

    pa_star = star_of(pa)
    pb_star = star_of(pb)
    s = evaluate_set(pa_star, sentences)
    t = evaluate_set(pb_star, sentences)
    if sr_star.leq(s, t):
        raise PreconditionError("starred valuations unexpectedly ordered")
    h = find_weakly_separating_hom(starred, s, t, semiring=sr_star)
    if h is None:
        raise PreconditionError("no weakly separating homomorphism found")
    qa = compose_hom(h, pa_star)
    qb = compose_hom(h, pb_star)
    wa = evaluate_set(qa, sentences)
    wb = evaluate_set(qb, sentences)
    if not (S3.leq(wb, wa) and wa != wb):
        raise PreconditionError("lifted pair fails to certify the violation")
    return qa, qb


def check_interp_hom(g: Dict[int, int], pa: Interpretation, pb: Interpretation) -> str:
    if pa.semiring.id != pb.semiring.id or pa.vocab != pb.vocab:
        raise PreconditionError("same semiring and vocabulary required")
    if set(g) != set(pa.universe):
        raise PreconditionError("map must be total on the source universe")
    if any(v not in pb.universe for v in g.values()):
        raise PreconditionError("map must land in the target universe")
    sr = pa.semiring
    is_hom = True
    for rel, args in pa.atom_keys():
        image = tuple(g[a] for a in args)
        preimage_sum = sr.sum(
            pa.literal(rel, other_args)
            for rel2, other_args in pa.atom_keys()
            if rel2 == rel and tuple(g[a] for a in other_args) == image
        )
        if not sr.leq(preimage_sum, pb.literal(rel, image)):
            is_hom = False
            break
    if not is_hom:
        return "none"
    strong = all(
        pa.pair(rel, args) == pb.pair(rel, tuple(g[a] for a in args))
        for rel, args in pa.atom_keys()
    )
    if not strong:
        return "hom"
    injective = len(set(g.values())) == len(g)
    return "embedding" if injective else "strong_hom"
