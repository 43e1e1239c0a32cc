"""Preservation under extensions and the elimination of universal quantifiers.

Existential sentences can only gain value when the universe grows.  The
converse direction asks: if a sentence IS extension-preserved on finite
interpretations, can the universal quantifiers be rewritten away?  Over the
Viterbi/Lukasiewicz family and over every lattice beyond the Boolean the
answer is yes, and the pipelines below do it: trivial universal subformulas
become true, redundant ones become false, a continuity split handles the
lattice case, and a bounded verification suite certifies each output.
"""

from semlog import (
    Interpretation,
    S3,
    VITERBI,
    Vocabulary,
    chain_lattice,
    evaluate,
    parse,
    render,
)
from semlog.lattices import LatticeSemiring
from semlog.preservation import (
    VITERBI_GRID,
    check_preservation,
    is_eventually_trivial,
    lift_counterexample_to_s3,
    rewrite_sigma1_lattice,
    rewrite_sigma1_strict,
)

# 1. A sentence that is NOT extension preserved: the checker finds a witness.
psi = parse("E x. A y. R(x)")
verdict = check_preservation(psi, VITERBI, "extensions", 2, VITERBI_GRID)
pa, pb, _ = verdict.witness
print("E x. A y. R(x) refuted:", evaluate(pa, psi), ">", evaluate(pb, psi))

# 2. Triviality: some universal subformulas evaluate to one in pi_n for all
# large n.  With every literal false, one element stands for a whole range.
trivial = parse("A! x. E! y. (true | R(x))")
print("eventually trivial:", is_eventually_trivial(trivial).verdict)
never = parse("E! x. (R(x) | ~R(x))")
print("never trivial:     ", is_eventually_trivial(never).verdict)

# 3. Strict-semiring rewriting: the universal disjunct is dominated.
report = rewrite_sigma1_strict(parse("(A! x. R(x)) | E! x. R(x)"), VITERBI)
print("strict rewrite:", render(report.output), "verified:", report.verification.ok)

# 4. Lattice rewriting via the continuity split.
for text in ("A y. E z. R(z)", "A y. ((E z. R(z)) | E z. (R(z) & Q(y)))"):
    rep = rewrite_sigma1_lattice(parse(text))
    print(f"lattice rewrite: {text}  ->  {render(rep.output)}")

# 5. Counterexamples over any lattice compress onto the three-element chain:
# adjoin a bottom, separate the two valuations, compose.
lat = chain_lattice(["0", "a", "b", "1"])
sr = LatticeSemiring(lat)
vocab = Vocabulary({"R": 1})
taut = parse("A x. (R(x) | ~R(x))")
pa = Interpretation.from_atoms(sr, (1,), vocab, {("R", (1,)): "1"})
pb = Interpretation.from_atoms(sr, (1, 2), vocab, {("R", (1,)): "1", ("R", (2,)): "a"})
qa, qb = lift_counterexample_to_s3(lat, pa, pb, [taut])
print(
    "lifted to S3:",
    S3.format_value(evaluate(qa, taut)), ">", S3.format_value(evaluate(qb, taut)),
)
