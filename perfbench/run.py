#!/usr/bin/env python3
"""Benchmark of the liestruct library: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

A single closed-loop client sends one request at a time and checks every
answer against closed forms (see ``inputs.py``). A run repeats whole passes
of the workload's mix, each pass on freshly seeded inputs, until at least
``--seconds`` have gone by; every request has an in-process deadline.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it first makes the same untraced run, then re-imports the
library with empty caches, wraps every layer (``tracing.py``), replays the
same inputs for the same number of passes, and reports the per-layer
metrics and the tracing overhead. Spans are written to
``.perfbench/spans-<workload>-seed<seed>.tsv``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is timed at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds in all, and the median reported; a short set-up gets more repeats.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
DEADLINE_S = 30.0  # per request; the slowest request of the mixes takes about 6 s
STOP_STARTING_S = 140.0  # no request starts later than this into the process
TAIL_ABOVE = 10  # the tail latency keeps at least this many requests above it


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside a request that ran too long.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def fresh_import():
    """Import liestruct from scratch: new modules, empty memo caches."""
    for name in [n for n in sys.modules if n == "liestruct" or n.startswith("liestruct.")]:
        del sys.modules[name]
    return importlib.import_module("liestruct")


def setup(workload, seed, workdir):
    """Import the library and generate the first pass; median of repeats."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        ls = fresh_import()
        first = workloads.generate(ls, workload, seed, 0, workdir)
        times.append(time.perf_counter() - t0)
    return ls, first, statistics.median(times)


def run_pass(ls, pass_inputs, started, seconds=None, passes=None, tracer=None):
    """Whole passes of the mix, ``pass_inputs(i)`` giving the requests of pass i.

    Runs until ``seconds`` have gone by, or exactly ``passes`` passes when
    that is given. Returns one list of request records per pass, the wall
    time of all passes, and the peak resident memory when the first pass
    ended (the memo keeps growing in later passes, so a faster program that
    fits more passes into a run would otherwise read as using more memory).
    """
    done = []
    first_rss = None
    t_start = time.perf_counter()
    while True:
        records = []
        done.append(records)
        for req in pass_inputs(len(done) - 1):
            if time.perf_counter() - started > STOP_STARTING_S:
                return done, time.perf_counter() - t_start, first_rss or _peak_rss_mb()
            if tracer is not None:
                tracer.request = sum(len(p) for p in done)
            records.append(_one_request(ls, req))
        elapsed = time.perf_counter() - t_start
        if len(done) == 1:
            first_rss = _peak_rss_mb()
        if len(done) == passes or (passes is None and elapsed >= seconds):
            return done, elapsed, first_rss


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _one_request(ls, req):
    """Run, time and check one request; the check is outside the timing."""
    rec = {"label": req.label, "key": req.key, "latency": None, "error": None,
           "wrong": False, "report_bytes": 0}
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            answer = workloads.execute(ls, req)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    except DeadlineExceeded:
        rec["error"] = "deadline of %.0f s passed" % DEADLINE_S
        return rec
    except Exception as exc:  # the request failed; the run goes on
        rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        rec["wrong"] = True
        return rec
    problem = workloads.check(req, answer)
    if problem:
        rec["error"] = problem
        rec["wrong"] = True
    else:
        rec["latency"] = latency
    if req.kind == "cli":
        rec["report_bytes"] = len(answer[1])
    return rec


def _tail(latencies):
    """(latency with TAIL_ABOVE passed requests above it, its percentile)."""
    n = len(latencies)
    if not n:
        return float("nan"), 0.0
    index = max(0, n - TAIL_ABOVE - 1)
    return latencies[index], 100.0 * (index + 1) / n


def end_to_end(passes, wall, setup_s, peak_rss_mb):
    """End-to-end metrics; the tail is taken per pass, then the median.

    A faster program fits more passes into a run. Taking the tail per pass
    keeps it at the same rank of the same mix however many passes ran.
    """
    records = [r for p in passes for r in p]
    latencies = sorted(r["latency"] for r in records if r["latency"] is not None)
    n = len(latencies)
    tails = [_tail(sorted(r["latency"] for r in p if r["latency"] is not None))
             for p in passes if p]
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_p50_s": (statistics.median(latencies) if n else float("nan"), "s"),
        "req_tail_s": (statistics.median(t[0] for t in tails), "s"),
        "req_per_s": (n / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = {
        "fail_ratio": (len(records) - n) / len(records) if records else 0.0,
        "tail_percentile": tails[0][1],
        "completed": n,
    }
    return metrics, summary


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print("  %-38s %14.6g %s" % (name, value, unit))


def _result_line(records, metrics):
    return json.dumps({
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["latency"] is None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liestruct", "__init__.py")):
        print("error: no liestruct sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        ls, first, setup_s = setup(args.workload, args.seed, workdir)
        passes, wall, peak_rss_mb = run_pass(
            ls, lambda i: first if i == 0 else workloads.generate(
                ls, args.workload, args.seed, i, workdir),
            started, seconds=args.seconds)
        records = [r for p in passes for r in p]
        metrics, summary = end_to_end(passes, wall, setup_s, peak_rss_mb)
        print("workload %s, seed %d: %d requests in %d pass(es) of %d, %.2f s"
              % (args.workload, args.seed, len(records), len(passes),
                 workloads.mix_size(args.workload), wall))
        _print_metrics(metrics)
        print("  %-38s %14.6g %s" % ("fail_ratio", summary["fail_ratio"], "ratio"))
        print("  req_tail_s is p%.1f of each pass (%d passed requests in all), "
              "the median over passes" % (summary["tail_percentile"], summary["completed"]))
        for r in records:
            if r["error"]:
                print("  FAILED %s: %s" % (r["label"], r["error"]))
        if args.trace:
            metrics, traced = traced_run(args, len(passes), wall, workdir, out_dir, started)
            print("per-layer metrics, per pass of the mix:")
            _print_metrics(metrics)
            records = records + traced
        print(_result_line(records, metrics))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def traced_run(args, passes, untraced_wall, workdir, out_dir, started):
    """Replay the run on fresh modules with every layer wrapped."""
    ls = fresh_import()
    inputs = [workloads.generate(ls, args.workload, args.seed, i, workdir)
              for i in range(passes)]
    tracer = tracing.install(ls)
    traced, wall, _ = run_pass(ls, inputs.__getitem__, started, passes=passes, tracer=tracer)
    records = [r for p in traced for r in p]
    tracing.write_spans(tracer, os.path.join(
        out_dir, "spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    values = tracing.layer_metrics(tracer, passes)
    cli_bytes = [r["report_bytes"] for r in records if r["report_bytes"]]
    values["cli.report_kb"] = statistics.mean(cli_bytes) / 1024.0 if cli_bytes else 0.0
    values["memo.repeat_share"] = workloads.repeat_share([r["key"] for r in records])
    values["trace.overhead_pct"] = 100.0 * (wall / untraced_wall - 1.0)
    return {name: (values[name], unit) for name, unit in tracing.UNITS.items()}, records


if __name__ == "__main__":
    sys.exit(main())
