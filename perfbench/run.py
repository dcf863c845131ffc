#!/usr/bin/env python3
"""Run one benchmark workload, or repeat one and summarise the spread.

One run (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload topmine-abstracts --seed 1 \\
        --seconds 20 --trace 0

prints a human report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
traced run also prints the per-layer table and writes its spans as JSON
under ``.perfbench-out/``.

Repeat mode runs the workload N times with seeds ``seed .. seed+N-1`` and
prints the median and quartiles of every metric; with ``--trace 1`` each
seed is run untraced and traced, and the tracing overhead is printed::

    python3 perfbench/run.py --workload serve-titles --repeat 5 --seconds 20

``--smoke`` shrinks every input so all workloads and their checks run in
seconds (used by ``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    THREAD_ENV,
    CheckFailed,
    Timings,
    emit,
    median_s,
    prepare,
    quartiles,
    scratch_dir,
)

os.environ.update(THREAD_ENV)  # before any import of NumPy

WORKLOADS = {
    "topmine-abstracts": "wl_topmine",
    "stream-abstracts": "wl_stream",
    "serve-titles": "wl_serve",
}

OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload and check in seconds")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds and print median and quartiles")
    return parser.parse_args(argv)


def load_spec() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    prepare()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    clock = Timings(import_s=time.perf_counter() - start)
    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
    with scratch_dir() as work:
        outcome = module.run(args.seed, args.seconds, args.smoke, recorder,
                             clock, work)
        correct = True
        try:
            outcome["verify"]()
        except CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
    report = list(outcome["report"]) + [
        f"  setup_s {clock.setup_s:.3f} s: imports {clock.import_s:.3f}, "
        f"inputs {clock.inputs_s:.3f}, median program set-up "
        f"{median_s(clock.setup_repeats):.3f} of {len(clock.setup_repeats)}"]
    if args.trace:
        layers = dict(outcome["layers"])
        for name in ("op_ms", "slow_op_ms"):
            layers[f"trace.{name}"] = outcome["metrics"][name]
        shown = "\n".join(report)
        report += [f"  {name:44s} {value:12.4f} {unit}"
                   for name, (value, unit) in layers.items() if name not in shown]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        recorder.dump(spans_path)
        report.append(f"spans written to {spans_path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        layers = {}
        declared = spec["end_to_end"]
    values = {**outcome["metrics"], **layers}
    metrics = {}
    for entry in declared:
        # A layer this workload does not run did no work; every end-to-end
        # metric must have been measured.
        if entry["name"] not in values and not args.trace:
            raise RuntimeError(f"{entry['name']} was not measured")
        value, unit = values.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, "
                               f"declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": float(value), "unit": unit}
    emit(correct, outcome["attempted"], outcome["failed"], metrics, report)
    return 0


def child_result(args: argparse.Namespace, seed: int, trace: int) -> dict:
    """Run one child and return its result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run with seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list, label: str) -> dict:
    """Print median and quartiles of every metric; return the medians."""
    print(f"{label}: {len(results)} runs, "
          f"correct={all(r['correct'] for r in results)}, "
          f"failed/attempted="
          f"{sorted({(r['failed'], r['attempted']) for r in results})}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else 0.0
        medians[name] = q2
        print(f"  {name:44s} median {q2:12.4f} {results[0]['metrics'][name]['unit']:8s}"
              f" q1 {q1:12.4f} q3 {q3:12.4f} spread {100 * spread:6.2f}%")
        print("      runs: " + " ".join(f"{value:.6g}" for value in values))
    return medians


def repeat(args: argparse.Namespace) -> int:
    seeds = [args.seed + i for i in range(args.repeat)]
    plain, traced = [], []
    for seed in seeds:
        plain.append(child_result(args, seed, 0))
        if args.trace:
            traced.append(child_result(args, seed, 1))
    medians = summarise(plain, f"{args.workload} untraced")
    if args.trace:
        traced_medians = summarise(traced, f"{args.workload} traced")
        for name in ("op_ms", "slow_op_ms"):
            base, with_spans = medians[name], traced_medians[f"trace.{name}"]
            print(f"tracing overhead on {name}: {with_spans - base:+.3f} ms "
                  f"({100 * (with_spans - base) / base:+.2f}%)")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
