"""Command-line interface: values, exit codes, determinism."""

import io
import contextlib
import random

import pytest

from corpus import random_foneq_sentence
from semlog import cli
from semlog.cli import main
from semlog.formulas import _preorder
from semlog.parser import parse, render

VIT_AB = """semiring: viterbi
universe: a b
R(a) = 1/2
R(b) = 1/4
default: 0
"""


@pytest.fixture
def interp_file(tmp_path):
    p = tmp_path / "vit.interp"
    p.write_text(VIT_AB)
    return str(p)


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_eval_prints_exact_rational(interp_file):
    code, out, _ = run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                           "--formula", "A x. R(x)")
    assert code == 0
    assert out.strip() == "1/8"


def test_eval_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.interp"
    bad.write_text("universe a b\n")
    code, _, err = run_cli("eval", "--semiring", "viterbi", "--interp", str(bad),
                           "--formula", "E x. R(x)")
    assert code == 2
    assert "error" in err


def test_eval_missing_file_exits_2():
    code, _, err = run_cli("eval", "--semiring", "viterbi", "--interp", "/nonexistent",
                           "--formula", "E x. R(x)")
    assert code == 2


def test_check_refutes_with_exit_1():
    code, out, _ = run_cli("check", "--property", "extensions", "--semiring", "viterbi",
                           "--formula", "E x. A y. R(x)", "--max-size", "2",
                           "--grid", "0,1/4,1/2,1")
    assert code == 1
    assert "refuted" in out and "pa =" in out and "pb =" in out


def test_check_names_the_pairs_certified_by_pi_n():
    def check(formula):
        return run_cli("check", "--property", "extensions", "--semiring", "viterbi",
                       "--max-size", "3", "--formula", formula)

    space = "(sizes<= 3, grid ['1/4', '1/2', '1'])"
    assert check("(A! x. Q(x)) | E! x. (R(x) | Q(x))") == (
        0, f"holds on search space {space}\ncertified by pi_n at pairs (1, 2) (1, 3) (2, 3)\n", "")
    code, out, _ = check("A! x. E! y. (R(x) | Q(y))")
    assert code == 1
    assert out.splitlines()[:3] == [
        f"refuted {space}",
        "certified by pi_n at pairs (1, 2) (1, 3)",
        "pa = <viterbi interp [1 2] ~Q(1)=1 ~Q(2)=1 R(1)=1/4 R(2)=1/4>",
    ]


def test_check_holds_with_exit_0():
    code, out, _ = run_cli("check", "--property", "extensions", "--semiring", "natinf",
                           "--formula", "E x. A y. R(x)", "--max-size", "2",
                           "--grid", "0,1,2")
    assert code == 0
    assert "holds" in out


def test_strategies_listing():
    code, out, _ = run_cli("strategies", "--formula", "E x. R(x)", "--n", "2", "--classify")
    assert code == 0
    assert "strategies 2" in out
    assert "existential" in out


def test_strategies_count_reads_the_table_and_keeps_the_guard(monkeypatch):
    """Without --list or --classify the count comes from `count_strategies`,
    with no strategy built; above --guard it is the enumeration's error."""
    monkeypatch.setattr(cli, "enumerate_strategies", None)
    formula = "A x. E y. R(y)"
    assert run_cli("strategies", "--n", "7", "--formula", formula) == (0, "strategies 823543\n", "")
    assert run_cli("--guard", "26", "strategies", "--n", "3", "--formula", formula) == (
        2, "", "error: 27 strategies exceed the guard 26\n")
    assert run_cli("--guard", "27", "strategies", "--n", "3", "--formula", formula)[1] == (
        "strategies 27\n")
    assert run_cli("strategies", "--n", "2", "--formula", "E! x. E! y. R(x)") == (
        0, "strategies 2\n", "")


def test_strategies_optimal(interp_file):
    code, out, _ = run_cli("strategies", "--formula", "E x. R(x)", "--n", "2",
                           "--optimal", "--semiring", "viterbi", "--interp", interp_file)
    assert code == 0
    assert "value 1/2" in out


@pytest.mark.parametrize("missing", ["--semiring", "--interp"])
def test_strategies_optimal_needs_semiring_and_interp(interp_file, missing):
    given = {"--semiring": "viterbi", "--interp": interp_file}
    del given[missing]
    argv = ["strategies", "--formula", "E x. R(x)", "--n", "2", "--optimal"]
    code, out, err = run_cli(*argv, *[tok for pair in given.items() for tok in pair])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_strategies_optimal_ignores_the_n_tree(interp_file):
    # the tree over --n would exceed the node guard; --optimal plays over the
    # interpretation's universe and never builds it
    code, out, _ = run_cli("strategies", "--formula", "A x. A y. E z. R(z)", "--n", "100",
                           "--optimal", "--semiring", "viterbi", "--interp", interp_file)
    assert code == 0
    assert "value 1/16" in out
    code, _, err = run_cli("strategies", "--formula", "A x. A y. E z. R(z)", "--n", "100")
    assert code == 2 and "exceeds" in err


@pytest.mark.parametrize("mode", [[], ["--optimal", "--semiring", "viterbi", "--interp"]])
def test_strategies_on_a_formula_with_free_variables_exits_2(interp_file, mode):
    argv = ["strategies", "--formula", "R(x)", "--n", "2", *mode]
    code, out, err = run_cli(*argv, *([interp_file] if mode else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "free" in err and err.count("\n") == 1


def test_provenance_polynomial():
    code, out, _ = run_cli("provenance", "--formula", "E! x. R(x)", "--n", "2",
                           "--semiring", "spoly")
    assert code == 0
    assert out.strip() == "x[R(1)] + x[R(2)]"


def test_trivial_verdicts():
    code, out, _ = run_cli("trivial", "--formula", "A! x. E! y. (true | R(x))")
    assert code == 0 and "trivial" in out
    code2, out2, _ = run_cli("trivial", "--formula", "E! x. (R(x) | ~R(x))")
    assert code2 == 1 and "non_trivial" in out2
    code3, out3, _ = run_cli("trivial", "--formula", "A! x. E! y. (true | R(x))", "--n", "2")
    assert code3 == 0 and "yes" in out3
    # exact at any size: the walk builds no universe
    code4, out4, _ = run_cli("trivial", "--formula", "A! y. E! z. R(z) | Q(y)", "--n", "1000000")
    assert code4 == 1 and out4 == "trivial-at 1000000: no\n"
    code5, out5, _ = run_cli("trivial", "--formula", "A! y. E! z. R(z) | Q(y)")
    assert code5 == 1
    assert out5 == "verdict: non_trivial\nprobes: ((1, False), (2, False), (3, False))\nthreshold: 3\n"


def test_trivial_values_the_fo_distinct_image_of_an_fo_formula():
    code, out, _ = run_cli("trivial", "--formula", "A x. R(x)")
    assert code == 1 and out.startswith("verdict: non_trivial\n")


def test_rewrite_strict_and_lattice():
    code, out, _ = run_cli("rewrite", "--mode", "strict",
                           "--formula", "(A! x. R(x)) | E! x. R(x)")
    assert code == 0
    assert "sigma1:" in out
    assert ("verify: verified (over viterbi: certified by pi_n at sizes (1, 2, 3, 4, 5); "
            "enumerated sizes (); sampled sizes (); interpretations checked: 0)\n") in out
    code2, out2, _ = run_cli("rewrite", "--mode", "lattice", "--formula", "A y. E z. R(z)")
    assert code2 == 0
    assert "E v1. R(v1)" in out2
    assert ("verify: verified (over s3: certified by pi_n at sizes (1, 2, 3, 4); "
            "enumerated sizes (); sampled sizes (); interpretations checked: 0)\n") in out2
    assert ("verify: verified (over fuzzy: certified by pi_n at sizes (1, 2, 3, 4); "
            "enumerated sizes (); sampled sizes (); interpretations checked: 0)\n") in out2
    code3, out3, _ = run_cli("rewrite", "--mode", "strict", "--formula", "E x. A y. R(x)")
    assert code3 == 1
    assert "refuted" in out3


def test_entail(tmp_path):
    phi = tmp_path / "phi.txt"
    psi = tmp_path / "psi.txt"
    phi.write_text("E x. x = x\n")
    psi.write_text("E x. (R(x) | ~R(x))\n")
    code, out, _ = run_cli("entail", "--phi", str(phi), "--psi", str(psi), "--sizes", "1..2")
    assert code == 1 and "witness" in out
    code2, out2, _ = run_cli("entail", "--phi", str(psi), "--psi", str(psi))
    assert code2 == 0 and "consistent" in out2
    # the criterion is over S3 only: a --semiring option would be ignored
    assert run_cli("entail", "--semiring", "viterbi", "--phi", str(psi), "--psi", str(psi))[0] == 2


def test_repro_commands():
    for name in ("viterbi-extension", "fuzzy-rewrite", "s3-lift"):
        code, out, _ = run_cli("repro", name)
        assert code == 0, (name, out)
        assert "PASS" in out
    code, out, _ = run_cli("repro", "nat-polynomial", "--n", "4")
    assert code == 0 and "4*x^4" in out and "PASS" in out


def test_repro_unknown_name():
    code, _, err = run_cli("repro", "warp-drive")
    assert code == 2


def test_usage_error_exits_2():
    code, _, _ = run_cli("check", "--property", "sideways", "--semiring", "viterbi",
                         "--formula", "E x. R(x)")
    assert code == 2


def test_lattice_semiring_from_file(tmp_path):
    lat_file = tmp_path / "four.lat"
    lat_file.write_text("elements: 0 a b 1\nleq: 0 a\nleq: a b\nleq: b 1\n")
    interp = tmp_path / "lat.interp"
    interp.write_text(
        f"semiring: lattice:{lat_file}\nuniverse: u v\nR(u) = b\nR(v) = a\n"
    )
    code, out, _ = run_cli(
        "eval", "--semiring", f"lattice:{lat_file}", "--interp", str(interp),
        "--formula", "A x. R(x)",
    )
    assert code == 0
    assert out.strip() == "a"
    code2, out2, _ = run_cli(
        "eval", "--semiring", f"lattice:{lat_file}", "--interp", str(interp),
        "--formula", "E x. R(x)",
    )
    assert out2.strip() == "b"


def test_output_is_deterministic(interp_file):
    runs = [
        run_cli("rewrite", "--mode", "lattice", "--formula", "A y. E z. R(z)")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    evals = [
        run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                "--formula", "E x. R(x)")
        for _ in range(2)
    ]
    assert evals[0] == evals[1]


@pytest.mark.parametrize("width", [1200, 5000])
def test_wide_disjunction_gets_the_verdict_of_a_narrow_one(width, interp_file):
    def outputs(n):
        formula = "E x. (" + " | ".join(["R(x)"] * n) + ")"
        check = run_cli("check", "--property", "extensions", "--semiring", "viterbi",
                        "--formula", formula)
        value = run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                        "--formula", formula)
        return check, value

    check, value = outputs(width)
    assert check[0] == 0 and check[1].startswith("holds on search space (")
    assert value == (0, "1/2\n", "")
    assert (check, value) == outputs(3)


def test_strategies_over_a_disjunction_wider_than_the_recursion_limit(interp_file):
    formula = "E x. (" + " | ".join(["R(x)"] * 1200) + ")"
    assert run_cli("strategies", "--n", "1", "--formula", formula) == (0, "strategies 1200\n", "")
    code, out, err = run_cli("strategies", "--n", "2", "--optimal", "--semiring", "viterbi",
                             "--interp", interp_file, "--formula", formula)
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[:3] == ["value 1/2", "optimal-count 1200", render(parse(formula)) + " -> pick 1"]
    # the chosen R(x) is the first disjunct, 1,199 or nodes down
    assert len(lines) == 3 + 1200 and lines[-1] == "  " * 1200 + "R(x) @ {'x': 1}"


@pytest.mark.parametrize("mode", ["strict", "lattice"])
def test_rewrite_over_a_disjunction_wider_than_the_recursion_limit(mode):
    """dedupe_or_idempotent keys a dict by the disjuncts, so this hashes and
    compares formulas 2,000 connectives deep; it dedupes the chain under the
    quantifier too."""
    formula = "E x. (" + " | ".join(["R(x)"] * 2000) + ")"
    code, out, err = run_cli("rewrite", "--mode", mode, "--formula", formula)
    verifications = [line for line in out.splitlines() if line.startswith("verify: ")]
    assert (code, err) == (0, "")
    assert verifications and all(v.startswith("verify: verified (") for v in verifications)
    assert "sigma1: E v1. R(v1)" in out.splitlines()


def test_quantifiers_nested_as_deep_as_the_parser_reads(interp_file):
    """Nesting far deeper than the recursion limit: parsing and valuation
    keep their own stacks."""
    def quantifiers(depth):
        return "".join(f"E x{i}. " for i in range(depth)) + f"R(x0) & R(x{depth - 1})"

    disjunction = "E x. " + "(R(x) | " * 2999 + "R(x)" + ")" * 2999
    for formula, value in ((quantifiers(400), "1/4"), (quantifiers(5000), "1/4"),
                           (disjunction, "1/2")):
        assert run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                       "--formula", formula) == (0, value + "\n", "")


def test_deeply_nested_input_exits_2_without_traceback(monkeypatch, interp_file):
    import semlog.cli as cli

    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_eval", too_deep)
    code, out, err = run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                             "--formula", "E x. R(x)")
    assert code == 2
    assert out == ""
    assert err == "error: input nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["check", "--property", "extensions", "--semiring", "viterbi", "--formula", "E x. R(x)",
     "--grid", "0,abc"],
    ["check", "--property", "extensions", "--semiring", "viterbi", "--formula", "E x. R(x)",
     "--grid", "1/0"],
    ["check", "--property", "extensions", "--semiring", "nat", "--formula", "E x. R(x)",
     "--grid", "1,x"],
    ["check", "--property", "extensions", "--semiring", "chain:x", "--formula", "E x. R(x)"],
    ["entail", "--phi", "{phi}", "--psi", "{phi}", "--sizes", "a..b"],
    ["eval", "--semiring", "viterbi", "--interp", "{bad}", "--formula", "E x. R(x)"],
], ids=["grid-word", "grid-over-zero", "nat-grid-word", "chain-levels", "sizes", "file-value"])
def test_a_malformed_number_is_a_usage_error(argv, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("E x. R(x)\n")
    bad = tmp_path / "bad.interp"
    bad.write_text("semiring: viterbi\nuniverse: a b\nR(a) = zz\n")
    code, out, err = run_cli(*(a.format(phi=phi, bad=bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--property", "extensions", "--semiring", "viterbi", "--formula", "E x. R(x)",
      "--grid", "0"], "--grid must name at least one nonzero value: '0'"),
    (["check", "--property", "extensions", "--semiring", "doubt", "--formula", "E x. R(x)",
      "--grid", "1,1"], "--grid must name at least one nonzero value: '1,1'"),
    (["check", "--property", "homs", "--semiring", "viterbi", "--formula", "E x. R(x)",
      "--max-size", "0"], "max_size must be at least 1, got 0"),
    (["entail", "--phi", "{phi}", "--psi", "{phi}", "--sizes", "3..1"],
     "sizes must name at least one size, each at least 1: '3..1'"),
    (["entail", "--phi", "{phi}", "--psi", "{phi}", "--sizes", "0,1"],
     "sizes must name at least one size, each at least 1: '0,1'"),
    (["eval", "--semiring", "viterbi", "--interp", "{bad}", "--formula", "E x. R(x)"],
     "line 3: not an exact rational: 'zz'"),
    (["eval", "--semiring", "viterbi", "--interp", "{bad_default}", "--formula", "E x. R(x)"],
     "line 4: not an exact rational: 'q'"),
], ids=["empty-grid", "doubt-empty-grid", "max-size-0", "reversed-sizes", "size-0",
        "file-value", "file-default"])
def test_an_empty_search_space_or_a_bad_file_value_is_a_usage_error(argv, message, tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("E x. R(x)\n")
    bad = tmp_path / "bad.interp"
    bad.write_text("semiring: viterbi\nuniverse: a b\nR(a) = zz\n")
    bad_default = tmp_path / "bad_default.interp"
    bad_default.write_text("semiring: viterbi\nuniverse: a b\nR(a) = 1/2\ndefault: q\n")
    argv = [a.format(phi=phi, bad=bad, bad_default=bad_default) for a in argv]
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


def test_internal_error_exits_3_with_traceback(monkeypatch, interp_file):
    import semlog.cli as cli

    def broken(args):
        raise ValueError("broken command")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    code, _, err = run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                           "--formula", "E x. R(x)")
    assert code == 3
    assert "Traceback" in err and "ValueError: broken command" in err


def test_the_parser_is_built_once_per_process(monkeypatch, interp_file):
    builds = []
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_arg_parser", lambda: builds.append(1) or build())
    for formula, value in (("A x. R(x)", "1/8"), ("E x. R(x)", "1/2"), ("A x. R(x)", "1/8")):
        assert run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                       "--formula", formula) == (0, value + "\n", "")
    assert builds == [1]


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(monkeypatch):
    assert run_cli("repro", "warp-drive")[0] == 2  # the parser is built by now
    seen = []
    monkeypatch.setattr(cli, "cmd_repro", lambda args: seen.append(args.name) or 0)
    assert run_cli("repro", "warp-drive") == (0, "", "")
    assert seen == ["warp-drive"]


def test_a_usage_error_leaves_the_kept_parser_working(interp_file):
    code, out, err = run_cli("eval", "--semiring", "viterbi", "--interp", interp_file)
    assert (code, out) == (2, "") and "--formula" in err
    assert run_cli("eval", "--semiring", "viterbi", "--interp", interp_file,
                   "--formula", "A x. R(x)") == (0, "1/8\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["strategies", "--help"]], ids=["top", "sub"])
def test_help_prints_the_same_text_twice_and_exits_0(argv):
    first = run_cli(*argv)
    assert first[0] == 0 and first[1].startswith("usage: semlog")
    assert run_cli(*argv) == first


def test_a_listing_call_leaves_the_next_call_unlisted():
    listed = run_cli("strategies", "--formula", "E x. R(x)", "--n", "2", "--list")
    assert listed[0] == 0 and "strategy 1:" in listed[1].splitlines()
    assert run_cli("strategies", "--formula", "E x. R(x)", "--n", "2") == (0, "strategies 2\n", "")


def _print_strategy_rendering_each_node(s, texts):
    """The strategy printer that renders every node's formula afresh, frozen
    as the oracle for `cli._print_strategy`; texts is ignored."""
    below = lambda item: [(c, item[1] + 1) for c in item[0].children]
    for node, depth in _preorder((s, 0), below):
        pad = "  " * depth
        label = render(node.formula) if not node.env else f"{render(node.formula)} @ {dict(node.env)}"
        if node.kind == "exists":
            print(f"{pad}{label} -> pick {node.tag}")
        elif node.kind == "or":
            print(f"{pad}{label} -> branch {node.tag}")
        else:
            print(f"{pad}{label}")


@pytest.mark.parametrize("semiring, values", [
    ("viterbi", ["0", "1/4", "1/2", "1"]),
    ("s3", ["0", "e", "1"]),
])
def test_strategy_output_matches_rendering_each_node(monkeypatch, tmp_path, semiring, values):
    rng = random.Random(f"strategy output over {semiring}")
    interp = tmp_path / "random.interp"
    for _ in range(25):
        text = render(random_foneq_sentence(rng))
        size = rng.randint(1, 3)
        universe = "abc"[:size]
        interp.write_text("".join(
            [f"semiring: {semiring}\nuniverse: {' '.join(universe)}\ndefault: 0\n"]
            + [f"{rel}({e}) = {rng.choice(values)}\n" for rel in "RQ" for e in universe]))
        for argv in (
            ["--guard", "600", "strategies", "--formula", text, "--n", str(size), "--list"],
            ["strategies", "--formula", text, "--n", "1", "--optimal", "--semiring", semiring,
             "--interp", str(interp)],
        ):
            printed = run_cli(*argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_print_strategy", _print_strategy_rendering_each_node)
                assert run_cli(*argv) == printed
