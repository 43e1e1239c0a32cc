"""The semlog benchmark.

    python3 bench/run.py --workload rewrite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each measurement runs in a fresh worker process (see worker.py) that builds
the seeded job list, runs it as a closed loop with one client for the given
seconds, and checks every job against a known answer.  Set-up time is the
median over several fresh processes.  The last line of standard output is
one JSON object with the metrics BENCHMARK.json lists: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1.  A fuller report and the
spans of a traced run are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s, the measuring one included
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args, deadline, setup_only=False):
    """Run one worker process to completion; return its JSON lines."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def main(argv=None):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "semlog", "__init__.py")):
        print(f"error: no semlog sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", OUT_DIR]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(worker_args, deadline, setup_only=True)[0]["setup_s"])
        lines = spawn(worker_args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = lines[-1]
    setups.append(lines[0]["setup_s"])
    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setups)
    result["extra"]["setup_samples"] = setups

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"workload": args.workload, "passes": result["passes"],
                      "jobs_per_pass": result["jobs_per_pass"], "failures": result["failures"],
                      **result["extra"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
