"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

worker.load_semlog()

import workloads  # noqa: E402
from tracer import Tracer, snapshot  # noqa: E402

ROOT = os.path.dirname(HERE)


def cheap_jobs():
    """A few fast jobs of every workload, so that each layer is exercised."""
    picked = []
    picked += [j for j in workloads.build("rewrite", 3)
               if j.label.startswith(("lattice", "strict viterbi E "))][:2]
    picked += [j for j in workloads.build("provenance", 3) if j.data.get("n", 5) <= 4
               or j.data.get("flavour") == "natpoly"][:3]
    picked += workloads.build("strategies", 3)[:5]
    picked += [j for j in workloads.build("probe", 3) if "true" not in j.label][:1]
    for i, job in enumerate(picked):
        job.jid = i
    return picked


def test_traced_and_untraced_outputs_are_identical():
    jobs = cheap_jobs()
    plain = worker.run_for(jobs, 0)
    tracer = Tracer()
    with tracer:
        traced = worker.run_for(jobs, 0, plain[0]["summaries"], tracer)
    assert traced[0]["summaries"] == plain[0]["summaries"]
    assert traced[0]["differs"] == []
    assert worker.check(jobs, plain + traced) == []


def test_tracer_restores_semlog():
    before = snapshot()
    tracer = Tracer().install()
    try:
        assert snapshot() != before
        import semlog.cli
        import semlog.preservation

        assert semlog.preservation.evaluate is semlog.cli.evaluate
        assert hasattr(semlog.preservation.evaluate, "__wrapped__")
    finally:
        tracer.uninstall()
    assert snapshot() == before
    assert not hasattr(semlog.preservation.evaluate, "__wrapped__")


def test_layer_self_times_add_up_to_the_traced_wall():
    jobs = cheap_jobs()
    tracer = Tracer()
    with tracer:
        wall = worker.run_for(jobs, 0, None, tracer)[0]["wall"]
    m = tracer.layer_metrics(wall)
    layers = [k for k in m if k.endswith(".self_s")] + ["formulas.transform_s"]
    total = sum(m[k] for k in layers) + m["trace.outside_s"]
    assert abs(total - wall) < 1e-9 * len(tracer.kind)
    assert 0 <= m["trace.outside_s"] < 0.01 * wall
    assert m["evaluation.calls"] > 0 and m["games.tree_nodes"] > 0
    assert m["polynomials.mul_calls"] > 0 and m["preservation.trivial_at_calls"] > 0


def test_seed_reproduces_the_job_list():
    for name in workloads.WORKLOADS:
        a = [j.label for j in workloads.build(name, 5)]
        assert a == [j.label for j in workloads.build(name, 5)]
        assert a != [j.label for j in workloads.build(name, 6)]


def test_wrong_answer_is_counted():
    jobs = cheap_jobs()
    good = worker.run_for(jobs, 0)[0]
    assert worker.check(jobs, [good]) == []
    i = next(k for k, j in enumerate(jobs) if j.data.get("flavour") == "natpoly")
    run = jobs[i].run

    def wrong():
        rc, out, err = run()
        return rc, out.replace(" + ", " + 2*", 1), err

    jobs[i].run = wrong
    bad = worker.run_for(jobs, 0, good["summaries"])[0]
    failures = worker.check(jobs, [bad, good])
    assert [(f["pass"], f["job"]) for f in failures] == [(0, jobs[i].jid), (1, jobs[i].jid)]
    assert bad["differs"] == [i]

    def boom():
        raise ValueError("boom")

    jobs[i].run = boom
    raised = worker.run_for(jobs, 0)[0]
    failures = worker.check(jobs, [raised])
    assert len(failures) == 1 and "ValueError: boom" in failures[0]["why"]


def test_tail_percentile_keeps_ten_jobs_beyond_it():
    assert worker.tail([1.0] * 19) is None
    t = worker.tail([float(i) for i in range(1, 101)])
    assert t == {"value": 90.0, "percentile": 90, "jobs": 100}


def test_polynomial_reader():
    terms = workloads.parse_polynomial("x[R(1)]*x[~Q(2,3)]^2 + 3*x[R(2)] + 4")
    assert terms == [(1, [(("R", (1,), True), 1), (("Q", (2, 3), False), 2)]),
                     (3, [(("R", (2,), True), 1)]), (4, [])]


def test_strategy_count_estimate_matches_the_game():
    from semlog.games import build_game_tree, count_strategies

    for job in workloads.build("strategies", 9)[:40]:
        f = job.data["formula"]
        assert workloads.count_strategies(f, 3) == count_strategies(build_game_tree(f, 3))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.load(open(tmp_path / "BENCHMARK.json"))["paths"] == ["bench"]
