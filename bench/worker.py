"""One benchmark process: set up a workload, run it for a time budget, check it.

Run by `run.py`, one fresh process per measurement, so that set-up time and
peak memory belong to the workload alone.  Prints `{"setup_s": ...}` once
the first job can start and, unless `--setup-only`, one JSON result line at
the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_semlog():
    """Import semlog from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "semlog", "__init__.py")):
        raise SystemExit(f"error: no semlog sources under {SRC}")
    sys.path.insert(0, SRC)
    import semlog

    if not os.path.abspath(semlog.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: semlog imported from {semlog.__file__}, not {SRC}")


# Pure-Python work unrelated to semlog, timed while the jobs run.  On a
# shared 2-vCPU virtual machine the CPU speed drifts by 10-30% over seconds
# to minutes, and interpreted code slows with it; scaling each job by the
# reference timed around it removes most of that drift.  REF_NOMINAL_S is the
# reference's median time on the machine the bounds were set on (2 vCPUs,
# Python 3.11.7); times reported in seconds are scaled to that speed.
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.2
REF_WINDOW_S = 1.0
REF_NEAREST = 5


def reference():
    """Time one run of the reference work, an integer loop.  Of the kernels
    tried (this loop, dict updates with tuple keys, frozenset-keyed memo
    tables), this one tracked the drift of the provenance jobs best: it cut
    the pass-to-pass spread from 14.5% to 6.9%."""
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i % 7
    return time.perf_counter() - start


def timed_reference(refs):
    t = reference()
    refs.append((time.perf_counter() - t / 2, t))


class Sampler:
    """Times the reference every REF_EVERY_S from a SIGALRM handler, so that
    a job of several seconds is sampled while it runs, and keeps the time
    the handler took, which is taken out of the job's time."""

    def __init__(self, refs):
        self.refs = refs
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        timed_reference(self.refs)
        self.spent += time.perf_counter() - start

    def clock(self):
        """(time, handler time so far), read with SIGALRM held back."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def local_speed(t0, t1, refs):
    """REF_NOMINAL_S over the median reference time near [t0, t1]: the ones
    within REF_WINDOW_S of it, or the REF_NEAREST nearest."""
    def gap(ref):
        return max(t0 - ref[0], ref[0] - t1, 0.0)

    near = [t for at, t in refs if gap((at, t)) <= REF_WINDOW_S]
    if len(near) < REF_NEAREST:
        near = [t for _, t in sorted(refs, key=gap)[:REF_NEAREST]]
    return REF_NOMINAL_S / statistics.median(near)


def run_pass(jobs, tracer=None):
    """Run every job once, one at a time.  Returns (job times, scaled job
    times, outputs); a job that raised has the output ("raised", traceback).
    A scaled time is the job's time times the local speed factor around it.
    Untraced, the reference is also sampled while jobs run; traced, only
    between jobs, so that no span contains it."""
    gc.collect()  # every pass starts from the same collector state
    spans, outputs, refs = [], [], []
    timed_reference(refs)
    sampler = Sampler(refs)
    with sampler if tracer is None else contextlib.nullcontext():
        for job in jobs:
            t0, spent0 = sampler.clock()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    with tracer.job_span(job.jid):
                        out = job.run()
            except Exception:  # a job that raises is a counted failure, not the end of the run
                out = ("raised", traceback.format_exc())
            t1, spent1 = sampler.clock()
            spans.append((t0, t1, spent1 - spent0))
            outputs.append(out)
            if tracer is not None and refs[-1][0] < t1 - REF_EVERY_S:
                timed_reference(refs)
    timed_reference(refs)
    timed_reference(refs)
    times = [t1 - t0 - spent for t0, t1, spent in spans]
    scaled = [t * local_speed(t0, t1, refs) for t, (t0, t1, _) in zip(times, spans)]
    return times, scaled, outputs


def run_for(jobs, seconds, reference_summaries=None, tracer=None):
    """Repeat whole passes while another pass of the same length still fits
    in `seconds`; at least one pass.  Only the first pass keeps its outputs
    (for the known-answer checks); later passes keep the indices of jobs
    whose output differs from `reference_summaries` (default: the first
    pass)."""
    import workloads

    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, scaled, outputs = run_pass(jobs, tracer)
        summaries = [workloads.summary(j, o) for j, o in zip(jobs, outputs)]
        if reference_summaries is None:
            reference_summaries = summaries
        passes.append({
            "wall": sum(times), "times": times, "scaled": scaled,
            "outputs": outputs if not passes else None,
            "summaries": summaries if not passes else None,
            "differs": [i for i, (a, b) in enumerate(zip(summaries, reference_summaries))
                        if a != b],
        })
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed + time.perf_counter() - pass_start > seconds:
            return passes


def check(jobs, passes):
    """Known-answer checks of the first pass's outputs; every pass must
    also reproduce the reference outputs.  Returns the failures."""
    verdicts = []
    for job, out in zip(jobs, passes[0]["outputs"]):
        if isinstance(out, tuple) and out and out[0] == "raised":
            why = "raised: " + out[1].strip().splitlines()[-1]
        else:
            try:
                why = job.check(job, out)
            except Exception:
                why = "check raised: " + traceback.format_exc().strip().splitlines()[-1]
        verdicts.append(why)
    failures = []
    for p_index, p in enumerate(passes):
        differs = set(p["differs"])
        for i, job in enumerate(jobs):
            why = verdicts[i]
            if why is None and i in differs:
                why = "output differs from the first untraced pass"
            if why is not None:
                failures.append({"pass": p_index, "job": job.jid, "label": job.label,
                                 "why": why})
    return failures


def setup_speed():
    """Speed factor of this process right after set-up."""
    return REF_NOMINAL_S / statistics.median(reference() for _ in range(5))


def tail(times):
    """The highest whole percentile with at least ten jobs beyond it, or
    None when there are too few jobs for it to lie above the median."""
    n = len(times)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 50:
        return None
    ordered = sorted(times)
    return {"value": ordered[min(n - 1, -(-p * n // 100) - 1)], "percentile": p, "jobs": n}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir")
    args = ap.parse_args(argv)

    load_semlog()
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    setup_raw = time.monotonic() - args.spawned_at
    setup_s = setup_raw * setup_speed()
    print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}), flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_for(jobs, budget)
    # Each job's typical time is its median over the passes, so that a burst
    # of contention during one pass moves no metric.
    per_job = [statistics.median(ts) for ts in zip(*(p["scaled"] for p in passes))]
    times = [t for p in passes for t in p["scaled"]]
    metrics = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "setup_s": setup_s,
    }
    extra = {
        "job_tail_s": tail(times),
        "raw_wall_s": statistics.median(p["wall"] for p in passes),
        "setup_raw_s": setup_raw,
        "pass_walls": [p["wall"] for p in passes],
        "job_s": {job.label: t for job, t in zip(jobs, per_job)},
        "pass_speeds": [sum(p["scaled"]) / p["wall"] for p in passes],
    }
    all_passes = passes
    if args.trace:
        from tracer import Tracer, snapshot

        before = snapshot()
        tracer = Tracer()
        with tracer:
            traced = run_for(jobs, 0, passes[0]["summaries"], tracer)
        restored = snapshot() == before
        pass_ = traced[0]
        layer = tracer.layer_metrics(pass_["wall"])
        layer["trace.wall_s"] = pass_["wall"]
        layer["trace.overhead_ratio"] = sum(pass_["scaled"]) / metrics["wall_s"]
        metrics.update(layer)
        extra["semlog_restored"] = restored
        if args.out_dir:
            path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
            tracer.write_spans(path)
            extra["spans_file"] = os.path.relpath(path, ROOT)
        all_passes = passes + traced
    failures = check(jobs, all_passes)
    if args.trace and not restored:
        failures.append({"pass": None, "job": None, "label": "tracer",
                         "why": "semlog still patched after the traced run"})
    attempted = len(jobs) * len(all_passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra["failed_ratio"] = len(failures) / attempted
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_pass": len(jobs), "passes": len(passes), "attempted": attempted,
              "failed": len(failures), "failures": failures[:20], "metrics": metrics,
              "extra": extra}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
