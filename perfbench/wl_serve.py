"""``serve-titles``: a ``repro serve`` process under a closed-loop client.

Set-up fits a model on dblp-titles (the ``repro mine``/``repro fit`` steps),
starts ``repro serve`` (1 worker, default batching, 50 fold-in sweeps) in
its own process and warms it up.  A separate load-generator process then
runs two keep-alive connections in a closed loop, each posting single-title
``/v1/infer`` requests with distinct seeds, like annotation jobs that each
wait for their reply.  Fold-in sweeps, HTTP/JSON handling and
micro-batching do the work; mining, counters and training do none.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import checks
from common import (
    BENCH_DIR,
    ROOT,
    SETUP_REPEATS,
    check,
    child_env,
    median_s,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    tail,
)
from loadgen import classify
from spans import load_spans, span_cost_seconds, table_lines, window_total
from wl_topmine import cli_configs, fit_step, mine_step
from repro.core.infer import InferenceConfig
from repro.datasets.registry import load_dataset
from repro.io import artifacts
from repro.obs.render import parse_prometheus
from repro.serve.client import ServeClient, ServeError

DATASET = "dblp-titles"
N_TRAIN = 2000
N_QUERIES = 2500
N_ITERATIONS = 100
FOLD_IN_SWEEPS = 50
WARMUP_REQUESTS = 20
SAMPLE_SOLO = 20
#: Seeds of the queries are ``QUERY_SEED_OFFSET + seed``, so queries are
#: unseen titles of the same topics.
QUERY_SEED_OFFSET = 100000
SERVER_START_TIMEOUT = 60.0
SPAN_NAMES = ("queue_wait", "batch_assembly", "model_load", "segmentation",
              "fold_in")


def fit_model(texts: List[str], seed: int, n_iterations: int,
              model_path: Path) -> Path:
    """``repro mine`` then ``repro fit`` with their defaults."""
    seg_path = model_path.with_name(f"{model_path.stem}-seg.npz")
    mine_config, lda_config = cli_configs(seed, n_iterations)
    mine_step(texts, mine_config, seg_path, DATASET)
    fit_step(seg_path, model_path, lda_config, DATASET)
    return model_path


class Server:
    """A ``repro serve`` child process started through the launcher."""

    def __init__(self, model: Path, work: Path, spans: Path = None) -> None:
        self.log_path = work / "server.log"
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["serve", "--model", str(model), "--port", "0",
                    "--workers", "1", "--iterations", str(FOLD_IN_SWEEPS)]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(PYTHONUNBUFFERED="1"))
        self.client = self._wait_ready()
        self.url = self.client.base_url

    def _wait_ready(self) -> ServeClient:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        client = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            if client is None:
                found = re.search(r"on (http://[\d.]+:\d+)",
                                  self.log_path.read_text(encoding="utf-8"))
                if found:
                    client = ServeClient(found.group(1), timeout=30, retries=0)
            if client is not None:
                try:
                    client.health()
                    return client
                except ServeError:
                    pass
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not become ready: "
                           f"{self.log_path.read_text(encoding='utf-8')[-2000:]}")

    def stop(self) -> None:
        """SIGTERM, wait for the clean exit (kill after a timeout)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def scrape(client: ServeClient) -> Dict[str, float]:
    """The unlabeled series of ``/metrics`` (the process-wide values)."""
    families = parse_prometheus(client.metrics_text())
    return {name: value for name, samples in families.items()
            for labels, value in samples if not labels}


def run_loadgen(url: str, titles: List[str], seed_base: int, seconds: float,
                work: Path) -> Dict:
    queries, out = work / "queries.json", work / "loadgen.json"
    queries.write_text(json.dumps({"titles": titles, "seed_base": seed_base}))
    subprocess.run([sys.executable, str(BENCH_DIR / "loadgen.py"), "--url", url,
                    "--queries", str(queries), "--seconds", str(seconds),
                    "--out", str(out)],
                   cwd=ROOT, check=True, timeout=seconds + 120, env=child_env())
    return json.loads(out.read_text())


def split_records(records) -> Tuple[List[float], int]:
    """Latencies of the successful requests, and the number that failed."""
    latencies = [r[2] for r in records if classify(r[1])]
    return latencies, len(records) - len(latencies)


def verify(records, titles, truth, seed_base: int, model_path: Path,
           n_true_topics: int, exit_code: int) -> None:
    """The server stopped cleanly; every 200 reply is a valid mixture; a
    sample equals solo in-process inference; served dominant topics beat
    chance."""
    check(exit_code == 0, f"server exited {exit_code}")
    ok = [r for r in records if classify(r[1])]
    check(ok, "no request succeeded")
    predicted, expected = [], []
    for index, _, _, body in ok:
        reply = json.loads(body)
        check(reply["seed"] == seed_base + index and len(reply["documents"]) == 1,
              f"request {index}: reply does not match its request")
        document = reply["documents"][0]
        checks.check_mixture(document["theta"], document["top_topics"],
                             reply["n_topics"], f"request {index}")
        predicted.append(int(np.argmax(document["theta"])))
        expected.append(truth[index % len(titles)])
    bundle = artifacts.load_model(model_path)
    step = max(1, len(ok) // SAMPLE_SOLO)
    for index, _, _, body in ok[::step][:SAMPLE_SOLO]:
        solo = bundle.infer_texts(
            [titles[index % len(titles)]],
            InferenceConfig(n_iterations=FOLD_IN_SWEEPS, seed=seed_base + index))
        served = json.loads(body)["documents"][0]["theta"]
        check(solo.theta[0].tolist() == served,
              f"request {index}: served θ differs from solo infer_texts")
    checks.check_above_chance(checks.majority_accuracy(predicted, expected),
                              n_true_topics, "served replies")


def run(seed: int, seconds: float, smoke: bool, recorder, clock, work: Path):
    n_train = 400 if smoke else N_TRAIN
    with clock.inputs():
        train = load_dataset(DATASET, n_documents=n_train, seed=seed)
        queries = load_dataset(DATASET, n_documents=200 if smoke else N_QUERIES,
                               seed=QUERY_SEED_OFFSET + seed)
    titles = queries.texts
    seed_base = 1000 * seed
    repeats = 1 if smoke else SETUP_REPEATS
    spans_path = work / "server-spans.json"
    server = None
    for i in range(repeats):
        start = time.perf_counter()
        model_path = fit_model(train.texts, seed, 20 if smoke else N_ITERATIONS,
                               work / f"model-{i}.npz")
        last = i == repeats - 1
        server = Server(model_path, work,
                        spans_path if recorder is not None and last else None)
        try:
            for j in range(WARMUP_REQUESTS):
                server.client.infer([titles[j]], seed=j)
        except BaseException:
            server.stop()
            raise
        clock.setup_repeats.append(time.perf_counter() - start)
        if not last:
            server.stop()

    try:
        before = scrape(server.client)
        cpu_before = proc_cpu_seconds(server.process.pid)
        result = run_loadgen(server.url, titles, seed_base, seconds, work)
        cpu = proc_cpu_seconds(server.process.pid) - cpu_before
        after = scrape(server.client)
        peak_rss = proc_peak_rss_mb(server.process.pid)
    finally:
        server.stop()

    records = result["records"]
    window = result["window"]
    latencies, failed = split_records(records)
    wall = window[1] - window[0]
    p50 = median_s(latencies) if latencies else 0.0
    p75, p90 = (np.percentile(latencies, [75, 90]) if latencies else (0.0, 0.0))
    q, tail_value = tail(latencies) if latencies else (50.0, 0.0)
    metrics = {
        "setup_s": (clock.setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "docs_per_s": (len(latencies) / wall, "docs/s"),
        "op_ms": (1000 * p50, "ms"),
        "slow_op_ms": (1000 * p75, "ms"),
    }
    report = [f"serve-titles: {len(records)} requests over {wall:.2f} s on "
              f"{result['connections']} closed-loop connections, {failed} failed",
              f"  infer_p50_ms {1000 * p50:.3f} ms  (op_ms; "
              f"{len(latencies)} samples)",
              f"  infer_p75_ms {1000 * p75:.3f} ms  (slow_op_ms), p90 "
              f"{1000 * p90:.3f} ms",
              f"  infer_tail_ms p{q:g} {1000 * tail_value:.3f} ms  (highest "
              f"percentile with >= 10 samples beyond it)"]
    layers = {}
    if recorder is not None:
        recorder.spans = load_spans(spans_path)
        layers, lines = _layers(recorder.spans, before, after, records, window,
                                cpu)
        layers["infer.client.tail_ms"] = (1000 * tail_value, "ms")
        report += lines
    return dict(attempted=len(records), failed=failed, metrics=metrics,
                layers=layers, report=report,
                verify=lambda: verify(records, titles, queries.document_topics,
                                      seed_base, model_path,
                                      queries.spec.n_topics,
                                      server.process.returncode))


def _layers(spans, before, after, records, window, cpu_seconds):
    """Per-request layer means from ``/metrics`` deltas and launcher spans."""
    def delta(name: str) -> Tuple[float, float]:
        key = f"repro_{name}"
        return (after.get(key + "_sum", 0.0) - before.get(key + "_sum", 0.0),
                after.get(key + "_count", 0.0) - before.get(key + "_count", 0.0))

    def mean_ms(name: str) -> float:
        total, count = delta(name)
        return 1000.0 * total / count if count else 0.0

    http_ms = mean_ms("http_v1_infer_seconds")
    span_ms = {name: mean_ms(f"span_{name}_seconds") for name in SPAN_NAMES}
    sizes, batches = delta("infer_batch_size")
    n_requests = max(1, len(records))
    window = tuple(window)
    n_batches, _ = window_total(spans, "core.infer", window)
    n_batches = max(1, n_batches)
    _, preprocess = window_total(spans, "text.preprocess", window)
    _, sweep = window_total(spans, "core.infer.sweep", window)
    obs_calls, obs_time = window_total(spans, "obs.metrics", window)
    # Batch-level spans are recorded once per batch, and every request of
    # the batch waits through them: their per-batch mean is what one
    # request experiences.
    preprocess_ms = 1000.0 * preprocess / n_batches
    sweep_ms = 1000.0 * sweep / n_batches
    rows = {
        "infer.serve.queue_wait_ms": span_ms["queue_wait"],
        "infer.serve.batch_assembly_ms": span_ms["batch_assembly"],
        "infer.serve.model_load_ms": span_ms["model_load"],
        "infer.core.segmentation_ms": span_ms["segmentation"] - preprocess_ms,
        "infer.text.preprocess_ms": preprocess_ms,
        "infer.core.fold_in_ms": span_ms["fold_in"] - sweep_ms,
        "infer.core.sweep_ms": sweep_ms,
    }
    rows["infer.serve.unattributed_ms"] = http_ms - sum(rows.values())
    client_ms = 1000.0 * sum(r[2] for r in records) / n_requests
    in_window = sum(1 for span in spans if window[0] <= span[1] < window[1])
    layers = {name: (value, "ms") for name, value in rows.items()}
    layers.update({
        "infer.serve.http_infer_ms": (http_ms, "ms"),
        "infer.client.overhead_ms": (client_ms - http_ms, "ms"),
        "serve.requests_per_batch": (sizes / batches if batches else 0.0,
                                     "ratio"),
        "obs.metric_writes_per_request": (obs_calls / n_requests, "count"),
        "obs.metrics_ms_per_request": (1000.0 * obs_time / n_requests, "ms"),
        "serve.cpu_ms_per_request": (1000.0 * cpu_seconds / n_requests, "ms"),
        # Spans per request times the cost of one, over the request time.
        "trace.est_overhead_pct": (
            100.0 * in_window / n_requests * span_cost_seconds() * 1000.0
            / http_ms if http_ms else 0.0, "%"),
    })
    return layers, table_lines("/v1/infer, per request", rows, http_ms,
                               "op_ms, slow_op_ms")
