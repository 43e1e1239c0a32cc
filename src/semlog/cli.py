"""Command-line interface.

Exit codes: 0 = holds/success, 1 = refuted (witness printed), 2 = usage or
guard error (input nested too deeply included), 3 = internal error (traceback
on stderr).  Output is deterministic for fixed inputs and seed.

The argument parser is built on the first call of `main` and kept for the
process; each call then runs the command's `cmd_<name>` function, looked up
by name when the call runs.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from .errors import GuardExceeded, PreconditionError, SemlogError
from .evaluation import evaluate
from .formulas import _fold, _preorder, is_fo, fo_to_foneq
from .games import build_game_tree, classify, count_strategies, enumerate_strategies, optimal
from .interpretations import Vocabulary, load_interpretation
from .parser import _render_step, parse, render
from .preservation import (
    check_preservation,
    is_eventually_trivial,
    is_trivial_at,
    rewrite_sigma1_lattice,
    rewrite_sigma1_strict,
    s3_entailment,
)
from .provenance import pi_n, specialization_hom
from .polynomials import NATPOLY, NatPoly, lit_var
from .semirings import semiring_from_id

HOLDS, REFUTED, USAGE, INTERNAL = 0, 1, 2, 3


def _parse_grid(semiring, text):
    values = [semiring.parse_value(tok.strip()) for tok in text.split(",")]
    grid = [v for v in values if v != semiring.zero]
    if not grid:
        raise PreconditionError(f"--grid must name at least one nonzero value: {text!r}")
    return grid


def _load_sentences(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append(parse(line))
    return out


def _say(args, *parts):
    if not args.quiet:
        print(*parts)


def cmd_eval(args) -> int:
    semiring = semiring_from_id(args.semiring)
    interp = load_interpretation(args.interp, semiring)
    formula = parse(args.formula)
    value = evaluate(interp, formula)
    print(interp.semiring.format_value(value))
    return HOLDS


def cmd_strategies(args) -> int:
    formula = parse(args.formula)
    if args.optimal:
        if args.semiring is None or args.interp is None:
            print("error: --optimal needs --semiring and --interp", file=sys.stderr)
            return USAGE
        semiring = semiring_from_id(args.semiring)
        interp = load_interpretation(args.interp, semiring)
        result = optimal(interp, formula)
        print(f"value {interp.semiring.format_value(result.value)}")
        print(f"optimal-count {result.all_optimal_count}")
        _print_strategy(result.strategy, _subformula_texts(formula))
        return HOLDS
    tree = build_game_tree(formula, args.n)
    if not (args.list or args.classify):
        total = count_strategies(tree)
        if total > args.guard:
            raise GuardExceeded(f"{total} strategies exceed the guard {args.guard}")
        print(f"strategies {total}")
        return HOLDS
    texts = _subformula_texts(formula) if args.list else {}
    count = 0
    for s in enumerate_strategies(tree, args.guard):
        count += 1
        if args.list:
            print(f"strategy {count}:")
            _print_strategy(s, texts)
        if args.classify:
            stats = classify(s)
            print(
                f"strategy {count}: {stats.cls} witnesses={sorted(stats.a_exists)} "
                f"literal-elements={sorted(stats.a_lit)}"
            )
    print(f"strategies {count}")
    return HOLDS


def _subformula_texts(formula) -> dict:
    """id(g) -> render(g) for every subformula g of formula, from one fold of
    render's step; rendering each strategy node afresh would re-walk its whole
    subformula.  Valid while formula lives."""
    texts = {}

    def step(g, *below):
        part = _render_step(g, *below)
        texts[id(g)] = part[0]
        return part

    _fold(formula, step)
    return texts


def _print_strategy(s, texts):
    """Each node of strategy s, indented by its depth; a node's formula text
    comes from texts (see `_subformula_texts`), or from `render` if it is not
    there."""
    below = lambda item: [(c, item[1] + 1) for c in item[0].children]
    for node, depth in _preorder((s, 0), below):
        pad = "  " * depth
        text = texts.get(id(node.formula)) or render(node.formula)
        label = text if not node.env else f"{text} @ {dict(node.env)}"
        if node.kind == "exists":
            print(f"{pad}{label} -> pick {node.tag}")
        elif node.kind == "or":
            print(f"{pad}{label} -> branch {node.tag}")
        else:
            print(f"{pad}{label}")


def cmd_provenance(args) -> int:
    formula = parse(args.formula)
    vocab = Vocabulary.of_formula(formula)
    flavor = "nat" if args.semiring == "natpoly" else "absorptive"
    interp = pi_n(vocab, args.n, flavor)
    print(interp.semiring.format_value(evaluate(interp, formula)))
    return HOLDS


def cmd_check(args) -> int:
    semiring = semiring_from_id(args.semiring)
    formula = parse(args.formula)
    prop = {"extensions": "extensions", "subints": "subinterpretations", "homs": "homomorphisms"}[
        args.property
    ]
    grid = _parse_grid(semiring, args.grid)
    verdict = check_preservation(formula, semiring, prop, args.max_size, grid, guard=args.guard)
    status = "refuted" if verdict.refuted else "holds on search space"
    print(f"{status} ({verdict.search_space})")
    if verdict.certified:
        print(f"certified by pi_n at pairs {' '.join(map(str, verdict.certified))}")
    if not verdict.refuted:
        return HOLDS
    pa, pb, g = verdict.witness
    va, vb = verdict.values
    print(f"pa = {pa!r}")
    print(f"pb = {pb!r}")
    if g is not None:
        print(f"g  = {g}")
    print(f"values {semiring.format_value(va)} vs {semiring.format_value(vb)}")
    return REFUTED


def cmd_trivial(args) -> int:
    formula = parse(args.formula)
    if is_fo(formula):
        formula = fo_to_foneq(formula)
    if args.n is not None:
        verdict = is_trivial_at(formula, args.n)
        print(f"trivial-at {args.n}: {'yes' if verdict else 'no'}")
        return HOLDS if verdict else REFUTED
    verdict = is_eventually_trivial(formula)
    print(f"verdict: {verdict.verdict}")
    _say(args, f"probes: {verdict.probes}")
    _say(args, f"threshold: {verdict.threshold}")
    return HOLDS if verdict.verdict == "trivial" else REFUTED


def cmd_rewrite(args) -> int:
    formula = parse(args.formula)
    if args.mode == "strict":
        semiring = semiring_from_id(args.semiring or "viterbi")
        report = rewrite_sigma1_strict(formula, semiring, seed=args.seed)
    else:
        report = rewrite_sigma1_lattice(formula, seed=args.seed)
    print(report.summary())
    if report.output is not None and report.ok:
        print(f"sigma1: {render(report.output)}")
        return HOLDS
    return REFUTED


def cmd_entail(args) -> int:
    phi = _load_sentences(args.phi)
    psi = _load_sentences(args.psi)
    sizes = _parse_sizes(args.sizes)
    verdict = s3_entailment(phi, psi, sizes, guard=args.guard)
    if verdict.consistent:
        print(f"consistent with entailment on sizes {sizes} ({verdict.checked} interpretations)")
        return HOLDS
    print("refuted")
    print(f"witness = {verdict.witness!r}")
    return REFUTED


def _parse_sizes(text):
    lo, dots, hi = text.partition("..")
    try:
        sizes = tuple(range(int(lo), int(hi) + 1) if dots else map(int, text.split(",")))
    except ValueError:
        raise PreconditionError(f"sizes must be 'lo..hi' or 'a,b,...': {text!r}") from None
    if not sizes or min(sizes) < 1:
        raise PreconditionError(f"sizes must name at least one size, each at least 1: {text!r}")
    return sizes


def cmd_repro(args) -> int:
    name = args.name
    if name == "viterbi-extension":
        return _repro_viterbi_extension(args)
    if name == "nat-polynomial":
        return _repro_nat_polynomial(args)
    if name == "fuzzy-rewrite":
        return _repro_fuzzy_rewrite(args)
    if name == "s3-lift":
        return _repro_s3_lift(args)
    print(f"unknown repro {name!r}", file=sys.stderr)
    return USAGE


def _repro_viterbi_extension(args) -> int:
    from .interpretations import Interpretation
    from .semirings import VITERBI

    vocab = Vocabulary({"R": 1})
    psi = parse("E x. A y. R(x)")
    pi1 = Interpretation.from_atoms(VITERBI, (1,), vocab, {("R", (1,)): Fraction(1, 2)})
    pi2 = Interpretation.from_atoms(
        VITERBI, (1, 2), vocab, {("R", (1,)): Fraction(1, 2), ("R", (2,)): Fraction(1, 2)}
    )
    v1 = evaluate(pi1, psi)
    v2 = evaluate(pi2, psi)
    print(f"pi1 value {VITERBI.format_value(v1)}")
    print(f"pi2 value {VITERBI.format_value(v2)}")
    verdict = check_preservation(psi, VITERBI, "extensions", 2, _parse_grid(VITERBI, "0,1/4,1/2,1"))
    ok = v1 == Fraction(1, 2) and v2 == Fraction(1, 4) and verdict.refuted
    print("PASS" if ok else "FAIL")
    return HOLDS if ok else REFUTED


def _repro_nat_polynomial(args) -> int:
    psi = parse("E x. A y. R(x)")
    vocab = Vocabulary({"R": 1})
    n = args.n or 4
    interp = pi_n(vocab, n, "nat")
    value = evaluate(interp, psi)
    collapse = {}
    for i in range(1, n + 1):
        collapse[lit_var("R", (i,), True)] = NatPoly.var("x")
        collapse[lit_var("R", (i,), False)] = NatPoly.zero()
    h = specialization_hom(collapse, NATPOLY, NATPOLY)
    collapsed = h(value)
    print(f"pi_{n} value {collapsed!r}")
    from .polynomials import Monomial

    expected = NatPoly(((Monomial.var("x", n), n),))
    ok = collapsed == expected
    print("PASS" if ok else "FAIL")
    return HOLDS if ok else REFUTED


def _repro_fuzzy_rewrite(args) -> int:
    psi = parse("A y. E z. R(z)")
    report = rewrite_sigma1_lattice(psi, seed=args.seed)
    print(report.summary())
    expected = parse("E z. R(z)")
    ok = report.ok and _alpha_equal(report.output, expected)
    print("PASS" if ok else "FAIL")
    return HOLDS if ok else REFUTED


def _alpha_equal(f, g) -> bool:
    from .formulas import canonical_bound_names

    return canonical_bound_names(f) == canonical_bound_names(g)


def _repro_s3_lift(args) -> int:
    from .interpretations import Interpretation
    from .lattices import LatticeSemiring, chain_lattice
    from .preservation import lift_counterexample_to_s3
    from .semirings import S3

    lat = chain_lattice(["0", "a", "b", "1"])
    sr = LatticeSemiring(lat)
    vocab = Vocabulary({"R": 1})
    psi = parse("A x. (R(x) | ~R(x))")
    pa = Interpretation.from_atoms(sr, (1,), vocab, {("R", (1,)): "1"})
    pb = Interpretation.from_atoms(sr, (1, 2), vocab, {("R", (1,)): "1", ("R", (2,)): "a"})
    qa, qb = lift_counterexample_to_s3(lat, pa, pb, [psi])
    wa = evaluate(qa, psi)
    wb = evaluate(qb, psi)
    print(f"lifted values {S3.format_value(wa)} > {S3.format_value(wb)}")
    ok = S3.lt(wb, wa)
    print("PASS" if ok else "FAIL")
    return HOLDS if ok else REFUTED


def build_arg_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs; the third is for readers of the code
    usage = "\n\n".join(__doc__.split("\n\n")[:2])
    top = argparse.ArgumentParser(prog="semlog", description=usage)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--guard", type=int, default=10**6)
    top.add_argument("--quiet", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula over an interpretation file")
    p.add_argument("--semiring", required=True)
    p.add_argument("--interp", required=True)
    p.add_argument("--formula", required=True)

    p = sub.add_parser("strategies", help="game-tree strategies")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--optimal", action="store_true")
    p.add_argument("--semiring")
    p.add_argument("--interp")

    p = sub.add_parser("provenance", help="canonical polynomial value")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--semiring", choices=["natpoly", "spoly"], default="spoly")

    p = sub.add_parser("check", help="bounded preservation check")
    p.add_argument("--property", choices=["extensions", "subints", "homs"], required=True)
    p.add_argument("--semiring", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--grid", default="0,1/4,1/2,1")

    p = sub.add_parser("trivial", help="triviality of a universal subformula")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--probe", action="store_true",
                   help="accepted and ignored: the verdict is exact without probing")

    p = sub.add_parser("rewrite", help="universal-quantifier elimination")
    p.add_argument("--mode", choices=["strict", "lattice"], required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--semiring")

    p = sub.add_parser("entail", help="S3 entailment criterion")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--sizes", default="1..3")

    p = sub.add_parser("repro", help="replay a named worked example")
    p.add_argument("name")
    p.add_argument("--n", type=int)

    return top


_parser = None  # built by the first `main` call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_arg_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (SemlogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return USAGE
    except Exception:
        traceback.print_exc()
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
