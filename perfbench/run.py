"""Benchmark of the azy5 library and its `azy5 verify` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the azy5 package in
its `src` directory; it exits with status 2 when there is none.  One run:

1. times the set-up of a fresh interpreter SETUP_PROBES times (setup_s is
   the median);
2. runs the workload in a fresh worker process for S seconds of whole
   passes over its seeded point set, checking every op;
3. with --trace 1, also runs the traced layer pass and the fresh-process
   geometry and `azy5 verify` stage probes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-double", "lambda-hiprec", "near-boundary")
SETUP_PROBES = 7
# A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170
PROBE_TIMEOUT_S = 20

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "throughput_ops_s": "1/s",
              "lambda_digits": "digits", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _last_json(argv, deadline):
    """Run a worker command and return the JSON object on its last line.
    The worker gets its own process group, so that a timeout also stops
    the `azy5 verify` processes it started."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_probe(workload):
    """Seconds from starting a fresh interpreter until the first op could
    start: after the import of azy5 for verify-double, whose ops pay their
    own cold start, and after filling the caches for the in-process
    workloads.  Also returns the probe's own figures."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "setup"], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    with proc:
        marks, last = {}, ""
        for line in proc.stdout:
            word = line.strip()
            if word in ("imported", "ready"):
                marks[word] = time.perf_counter() - t0
            else:
                last = word
        watchdog.cancel()
        if proc.wait() != 0 or len(marks) != 2:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    return marks["imported" if workload == "verify-double" else "ready"], json.loads(last)


def measure(workload, seed, seconds, trace):
    """One run: (attempted, failed, correct, metrics)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    probes = [_setup_probe(workload) for _ in range(SETUP_PROBES)]
    base = [sys.executable, WORKER]
    res = _last_json(base + ["run", "--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)], deadline)
    problems = res["problems"]
    if trace:
        metrics = dict(res["layers"])
        metrics["forms.azy_terms_cold_s"] = statistics.median(
            p[1]["forms.azy_terms_cold_s"] for p in probes)
        for cmd in ("geometry", "stages"):
            probe = _last_json(base + [cmd, "--seed", str(seed)], deadline)
            problems += probe.pop("problems", [])
            metrics.update(probe)
        units = {k: "count" if k.endswith("_solves") else "s" for k in metrics}
    else:
        metrics = {k: res[k] for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(p[0] for p in probes)
        units = END_TO_END
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    correct = not problems
    if any(v is None for v in metrics.values()):
        correct = False
        metrics = {k: v for k, v in metrics.items() if v is not None}
    return res["attempted"], res["failed"], correct, {
        k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "azy5", "__init__.py")):
        print(f"error: no azy5 package under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    try:
        attempted, failed, correct, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
          f"correct {str(correct).lower()}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
