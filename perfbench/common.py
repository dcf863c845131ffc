"""Shared plumbing of the benchmark: paths, set-up, statistics and output.

Nothing here imports :mod:`repro`; the workloads do that themselves, so the
time an import takes lands in their ``setup_s``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Native thread pools (BLAS, OpenMP) are pinned to one thread, so a run
#: measures the program and not how many cores a pool happened to grab.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: Set-up repetitions whose median is reported as the program's set-up.
SETUP_REPEATS = 3


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own check."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for child processes: pinned pools, ``src`` importable."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def prepare() -> None:
    """Compile the bytecode and the C sampling kernel before any timing.

    Runs in a child process so that the measuring process still pays (and
    reports in ``setup_s``) its own imports, but never a compile.
    """
    code = ("import compileall, sys\n"
            f"ok = compileall.compile_dir({str(SRC)!r}, quiet=1)\n"
            f"ok = compileall.compile_dir({str(BENCH_DIR)!r}, quiet=1) and ok\n"
            "from repro.topicmodel.ckernel import load_kernel, load_error\n"
            "if load_kernel() is None:\n"
            "    print('C kernel unavailable:', load_error(), file=sys.stderr)\n"
            "sys.exit(0 if ok else 1)\n")
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   timeout=600)


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as name:
        yield Path(name)
    try:
        base.rmdir()
    except OSError:  # another run still uses it
        pass


def median_s(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than forty samples there is
    no tail and the median is returned as the 50th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10 and n >= 40:
            index = min(n - 1, int(round(q / 100.0 * (n - 1))))
            return q, ordered[index]
    return 50.0, median_s(ordered)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def whole_rounds(seconds: float) -> Iterator[int]:
    """Round numbers for as long as one more round fits in ``seconds``.

    The first round always runs; each later one only if the time used so
    far plus the last round's duration stays within ``seconds``, so a run
    attempts whole rounds of the same operations and never overshoots by
    a round.
    """
    begin = time.perf_counter()
    last = 0.0
    number = 0
    while number == 0 or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        yield number
        last = time.perf_counter() - start
        number += 1


class Timings:
    """The set-up clock of one run: imports, inputs, program set-up."""

    def __init__(self, import_s: float) -> None:
        self.import_s = import_s
        self.inputs_s = 0.0
        self.setup_repeats: List[float] = []

    @contextmanager
    def inputs(self) -> Iterator[None]:
        """Time input generation (done once per run)."""
        start = time.perf_counter()
        yield
        self.inputs_s += time.perf_counter() - start

    @property
    def setup_s(self) -> float:
        """Imports plus inputs plus the median program set-up."""
        return self.import_s + self.inputs_s + median_s(self.setup_repeats)


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]],
         report: Optional[List[str]] = None) -> None:
    """Print the human report, then the one-line JSON result (last line)."""
    for line in report or ():
        print(line)
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics},
                     sort_keys=True))
    sys.stdout.flush()
