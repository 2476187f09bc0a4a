#!/usr/bin/env python3
"""Run one mvbetti benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

Run from a checkout that holds `src/mvbetti`.  Set-up (import, input
generation, file writing) runs SETUP_REPEATS times and `setup_s` is their
median.
With `--trace 0` a single caller runs the workload's operations in a closed
loop for `--seconds` and the end-to-end metrics are reported.  With
`--trace 1` a fixed prefix of the operations runs untraced and traced, twice
each in turn; the per-layer totals of one traced pass are reported, the work
counters of the two traced passes must agree exactly, and the gap between
traced and untraced throughput is the tracing overhead.  Every answer is
checked against `reference.py`; any mismatch, exception or nonzero exit code
counts as a failed operation.  Every reported time is in reference seconds,
scaled by the host-speed probe of `hostspeed.py` run between operations;
the wall-clock figures are printed above the result.  Metric names and units come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

import hostspeed
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
SETUP_PROBES = 8
MODULES = ("arrangement", "betti", "cli", "flats", "generate", "linalg", "spectral")


def import_program() -> SimpleNamespace:
    """Import the package afresh from this checkout's `src`."""
    for name in [m for m in sys.modules if m == "mvbetti" or m.startswith("mvbetti.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"mvbetti.{m}") for m in MODULES})
    found = Path(mods.cli.__file__).resolve().parent
    if found != (SRC / "mvbetti").resolve():
        raise ImportError(f"mvbetti was imported from {found}, not from {SRC}")
    return mods


def setup(workload, seed: int, workdir: Path):
    """One set-up: import, generate the input pool, write its files.

    Returns its time in reference seconds, scaled by the probes taken just
    before and just after it.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    mods = import_program()
    ops = workload.build(mods, Random(seed), str(workdir))
    elapsed = perf_counter() - start
    probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
    return elapsed * hostspeed.factor(probes), mods, ops


def run_op(workload, mods, op):
    try:
        return workload.run(mods, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def probe_gap(workload) -> list:
    """(time, seconds) of the host-speed probes run between two operations."""
    return [(perf_counter(), hostspeed.probe()) for _ in range(workload.probes_per_gap)]


def closed_loop(workload, mods, ops, seconds: float):
    """One caller, next op when the previous returns; stops at a batch boundary.

    Host-speed probes run in the gap before every op and after the last one.
    """
    spans, results, probes = [], [], []
    start = perf_counter()
    i = 0
    while i % workload.batch or perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        probes += probe_gap(workload)
        t0 = perf_counter()
        out = run_op(workload, mods, op)
        spans.append((t0, perf_counter()))
        results.append((op, out))
        i += 1
    probes += probe_gap(workload)
    return spans, probes, results


def fixed_pass(workload, mods, ops, tracer=None, by_kind=None):
    """Run `ops` once; return their time in reference seconds, its scale, results.

    The scale (reference over wall seconds for the whole pass) converts the
    tracer's totals.  With a tracer, each op's wall time per layer is also
    added to `by_kind`.
    """
    results, probes, spans = [], [], []
    for op in ops:
        probes += probe_gap(workload)
        before = tracer.totals() if tracer else None
        t0 = perf_counter()
        results.append((op, run_op(workload, mods, op)))
        spans.append((t0, perf_counter()))
        if tracer:
            kind = by_kind.setdefault(op.kind, Counter())
            kind["ops"] += 1
            for layer, t in tracer.totals().items():
                kind[layer] += t - before[layer]
    probes += probe_gap(workload)
    raw = [end - start for start, end in spans]
    scaled = sum(t * f for t, f in zip(raw, hostspeed.local_factors(probes, spans)))
    return scaled, scaled / sum(raw), results


def count_failures(workload, mods, results) -> int:
    """Check each output against the reference, computed once per input."""
    failed = 0
    for op, out in results:
        ok = False
        if not isinstance(out, Exception):
            try:
                if op.expected is None:
                    op.expected = workload.expect(mods, op)
                ok = workload.matches(op.expected, out)
            except Exception as exc:
                out = exc
        if not ok:
            if not failed:
                print(f"first failure: {op.label}", file=sys.stderr)
                if isinstance(out, Exception):
                    traceback.print_exception(out, file=sys.stderr)
                else:
                    print(f"  got {out!r}, expected {op.expected!r}", file=sys.stderr)
            failed += 1
    return failed


def end_to_end(workload, mods, ops, seconds, setup_s):
    spans, probes, results = closed_loop(workload, mods, ops, seconds)
    failed = count_failures(workload, mods, results)
    n = len(spans)
    raw = [end - start for start, end in spans]
    scales = hostspeed.local_factors(probes, spans)
    latencies = [t * f for t, f in zip(raw, scales)]
    pct = workload.tail_percentile
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if n > 1 else latencies * 99
    tail = cuts[pct - 1]
    beyond = sum(1 for x in latencies if x > tail)
    print(f"{workload.name}: {n} ops, {sum(raw):.2f} s wall in ops: {n / sum(raw):.4f} ops/s, "
          f"p50 {statistics.median(raw) * 1000:.3f} ms wall; reference scale "
          f"{min(scales):.3f}..{max(scales):.3f}")
    print(f"latency_tail_ms is p{pct}: {beyond} of {n} samples beyond it")
    if beyond < 10:
        print(f"note: fewer than 10 samples beyond p{pct}; run longer for a stable tail")
    values = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return n, failed, values, True


def traced(workload, mods, ops):
    """Untraced and traced passes over the same prefix, interleaved U T U T."""
    subset = [ops[i % len(ops)] for i in range(workload.trace_ops)]
    tracer = Tracer()
    results, untraced, passes, by_kind = [], [], [], {}
    for _ in range(2):
        elapsed, _, more = fixed_pass(workload, mods, subset)
        untraced.append(elapsed)
        results += more
        tracer.reset()
        tracer.install(mods)
        try:
            elapsed, scale, more = fixed_pass(workload, mods, subset, tracer, by_kind)
        finally:
            tracer.uninstall()
        results += more
        times = {k: t * scale for k, t in tracer.times().items()}
        passes.append((elapsed, tracer.work_counts(), times))
    failed = count_failures(workload, mods, results)
    (t1, work, times1), (t2, work2, times2) = passes
    repeats = work == work2
    if not repeats:
        changed = sorted(k for k in work if work[k] != work2[k])
        print(f"work counters differ between identical passes: {changed}", file=sys.stderr)

    values = {k: (times1[k] + times2[k]) / 2 for k in times1}
    values.update(work)
    poset = "flats.build_intersection_poset"
    flats = work[f"{poset}.flats"]
    values["flats.rref_per_flat"] = work[f"{poset}.rref_inside"] / flats if flats else 0.0
    k = len(subset)
    untraced_s, traced_s = sum(untraced) / 2, (t1 + t2) / 2
    values["trace.ops"] = k
    values["trace.untraced_ops_per_s"] = k / untraced_s
    values["trace.traced_ops_per_s"] = k / traced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1

    print(f"{workload.name}: {k} ops per pass, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s (overhead {values['trace.overhead_frac']:+.1%})")
    print(f"{'layer':34} {'calls':>9} {'incl s':>9} {'self s':>9}")
    for layer in LAYERS:
        if work[f"{layer}.calls"]:
            print(f"{layer:34} {work[f'{layer}.calls']:9d} {values[f'{layer}.s']:9.3f} "
                  f"{values[f'{layer}.self_s']:9.3f}")
    print("inclusive wall seconds per op, by kind (both traced passes):")
    for kind, t in by_kind.items():
        top = sorted(((s, layer) for layer, s in t.items() if layer != "ops"), reverse=True)
        shown = ", ".join(f"{layer} {s / t['ops']:.4f}" for s, layer in top[:6] if s)
        print(f"  {kind} ({t['ops']} ops): {shown}")
    return len(results), failed, values, repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # setup_s is an end-to-end metric only, so a traced run sets up once.
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            setup_s, mods, ops = setup(workload, args.seed, workdir)
            setups.append(setup_s)
        setup_s = statistics.median(setups)
        if args.trace:
            attempted, failed, values, repeats = traced(workload, mods, ops)
        else:
            attempted, failed, values, repeats = end_to_end(
                workload, mods, ops, args.seconds, setup_s)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has files there

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
