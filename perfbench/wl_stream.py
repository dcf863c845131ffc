"""``stream-abstracts``: many small batches into a fresh ``TopicStream``.

Each round creates a stream, ingests 16 batches of dblp-abstracts in order
(100 new abstracts plus 5 repeats of the previous batch each, so the log's
de-duplication does work), and forces a refresh after every 2nd batch.  The
counter persistence of an ingest grows with the stored state, so the
``stream.counters`` layer does most of the work here; the refreshes read the
same state back, so a change that speeds writes at the cost of reads shows
on both sides.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

import checks
from common import SETUP_REPEATS, check, median_s, self_peak_rss_mb, whole_rounds
from spans import (
    estimated_overhead_pct,
    layer_metrics,
    layer_rows,
    op_span,
    table_lines,
)
from wl_topmine import fit_step, mine_step
from repro.core.phrase_lda import PhraseLDA
from repro.core.segmentation import CorpusSegmenter
from repro.datasets.registry import load_dataset
from repro.io import artifacts
from repro.io.artifacts import ModelBundle
from repro.stream import log, updater
from repro.stream.counters import AccumulatedCounts, ShardStats
from repro.stream.log import DocumentLog
from repro.stream.updater import StreamConfig, TopicStream

DATASET = "dblp-abstracts"
BATCH_DOCS = 100
REPEATS_PER_BATCH = 5
N_BATCHES = 16
REFRESH_EVERY = 2
SMOKE = dict(batch_docs=30, n_batches=4, refresh_every=2)

INGEST_LAYERS = ["stream.log.reload", "stream.log.append", "stream.log.read_shard",
                 "text.encode", "stream.counters.shard_compute",
                 "stream.counters.shard_save", "stream.counters.counts_load",
                 "stream.counters.merge", "stream.counters.counts_save",
                 "stream.state_json"]
REFRESH_LAYERS = ["stream.log.reload", "stream.counters.counts_load",
                  "stream.counters.shard_load", "stream.counters.mining_result",
                  "core.segmentation", "core.phrase_lda", "io.build_model",
                  "io.save_model", "stream.state_json"]


def make_batches(texts: List[str], batch_docs: int, n_batches: int
                 ) -> List[List[str]]:
    """Batches of new texts, each led by repeats of the previous batch
    (the first repeats two of its own texts)."""
    batches = []
    for i in range(n_batches):
        fresh = texts[i * batch_docs:(i + 1) * batch_docs]
        repeats = (batches[-1][-REPEATS_PER_BATCH:] if batches
                   else fresh[:2])
        batches.append(list(repeats) + fresh)
    return batches


def expected_appends(batches: List[List[str]]) -> Tuple[List[Tuple[int, int]],
                                                       List[str]]:
    """Own count of ``(appended, duplicates)`` per batch, plus the unique
    texts in log order."""
    seen, order, counts = set(), [], []
    for batch in batches:
        appended = 0
        for text in batch:
            if text not in seen:
                seen.add(text)
                order.append(text)
                appended += 1
        counts.append((appended, len(batch) - appended))
    return counts, order


def install_spans(recorder) -> None:
    """Wrap the public entry points ingest and refresh call."""
    recorder.wrap(DocumentLog, "reload", "stream.log.reload")
    recorder.wrap(DocumentLog, "append", "stream.log.append")
    recorder.wrap(DocumentLog, "read_shard", "stream.log.read_shard")
    recorder.wrap(updater, "encode_texts", "text.encode")
    recorder.wrap(ShardStats, "compute", "stream.counters.shard_compute")
    recorder.wrap(ShardStats, "save", "stream.counters.shard_save")
    recorder.wrap(ShardStats, "load", "stream.counters.shard_load")
    recorder.wrap(AccumulatedCounts, "load", "stream.counters.counts_load")
    recorder.wrap(AccumulatedCounts, "merge_shard", "stream.counters.merge")
    recorder.wrap(AccumulatedCounts, "save", "stream.counters.counts_save")
    recorder.wrap(AccumulatedCounts, "mining_result",
                  "stream.counters.mining_result")
    recorder.wrap(updater, "write_json_atomic", "stream.state_json")
    recorder.wrap(log, "write_json_atomic", "stream.state_json")
    recorder.wrap(CorpusSegmenter, "segment", "core.segmentation")
    recorder.wrap(PhraseLDA, "fit", "core.phrase_lda")
    recorder.wrap(ModelBundle, "from_fit", "io.build_model")
    recorder.wrap(updater, "save_bundle", "io.save_model")


def run_round(root: Path, batches, config: StreamConfig, refresh_every: int,
              recorder, ingest_times: List[float], refresh_times: List[float]):
    """One round: create a stream, ingest every batch, refresh on cadence."""
    stream = TopicStream.create(root, config)
    reports = []
    for i, batch in enumerate(batches):
        start = time.perf_counter()
        with op_span(recorder, "op.ingest"):
            reports.append(stream.ingest(batch))
        ingest_times.append(time.perf_counter() - start)
        if (i + 1) % refresh_every == 0:
            start = time.perf_counter()
            with op_span(recorder, "op.refresh"):
                stream.refresh(force=True)
            refresh_times.append(time.perf_counter() - start)
    return stream, reports


def verify(stream: TopicStream, reports, batches, work: Path) -> None:
    """Own append counts; the published model ≡ an offline fit; its phrase
    table ≡ the independent recount."""
    expected, unique_texts = expected_appends(batches)
    got = [(r.n_documents, r.n_duplicates) for r in reports]
    check(got == expected, f"appended/duplicate counts {got} differ from "
                           f"the benchmark's own count {expected}")
    config = stream.config
    seg_path, offline_path = work / "offline-seg.npz", work / "offline.npz"
    corpus, _, _ = mine_step(unique_texts, config.topmine_config(), seg_path,
                             config.source)
    fit_step(seg_path, offline_path, config.phrase_lda_config(), config.source)
    published = stream.current_model_path
    checks.check_same_arrays(checks.npz_arrays(published),
                             checks.npz_arrays(offline_path),
                             "published model vs offline fit",
                             skip=("manifest",))
    sections = ("format", "version", "kind", "mining", "construction",
                "preprocess", "model")
    left, right = (artifacts.read_manifest(p) for p in (published, offline_path))
    check(all(left[key] == right[key] for key in sections),
          "published model manifest differs from the offline fit's")
    table = artifacts.load_model(published).mining
    checks.check_phrase_table(
        table.counter.as_dict(),
        [chunk for doc in corpus for chunk in doc.chunks], table.min_support)


def run(seed: int, seconds: float, smoke: bool, recorder, clock, work: Path):
    shape = SMOKE if smoke else dict(batch_docs=BATCH_DOCS, n_batches=N_BATCHES,
                                     refresh_every=REFRESH_EVERY)
    with clock.inputs():
        generated = load_dataset(
            DATASET, n_documents=shape["batch_docs"] * shape["n_batches"],
            seed=seed)
        batches = make_batches(generated.texts, shape["batch_docs"],
                               shape["n_batches"])
    config = StreamConfig(seed=seed, n_iterations=20 if smoke else 100)
    for i in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        run_round(work / f"warm-{i}", [b[:30] for b in batches[:2]],
                  StreamConfig(seed=seed, n_iterations=10), 2, None, [], [])
        clock.setup_repeats.append(time.perf_counter() - start)

    if recorder is not None:
        install_spans(recorder)
    ingest_times: List[float] = []
    refresh_times: List[float] = []
    begin = time.perf_counter()
    for number in whole_rounds(seconds):
        if number:
            shutil.rmtree(stream.root)
        stream, reports = run_round(work / f"round-{number}", batches, config,
                                    shape["refresh_every"], recorder,
                                    ingest_times, refresh_times)
    rounds = number + 1
    wall = time.perf_counter() - begin
    if recorder is not None:
        recorder.unwrap_all()

    appended = rounds * sum(r.n_documents for r in reports)
    # Batch latency grows with the stored state by design, so the median of
    # one round is one or two samples; the mean over the round uses all.
    ingest_mean = sum(ingest_times) / len(ingest_times)
    refresh_mean = sum(refresh_times) / len(refresh_times)
    metrics = {
        "setup_s": (clock.setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "docs_per_s": (appended / wall, "docs/s"),
        "op_ms": (1000 * ingest_mean, "ms"),
        "slow_op_ms": (1000 * refresh_mean, "ms"),
    }
    report = [f"stream-abstracts: {rounds} rounds of {len(batches)} batches "
              f"of {shape['batch_docs']} new texts plus repeats, forced "
              f"refresh every {shape['refresh_every']}",
              f"  ingest batch mean {1000 * ingest_mean:.2f} ms, p50 "
              f"{1000 * median_s(ingest_times):.2f} ms  (op_ms is the mean; "
              f"{len(ingest_times)} samples, first "
              f"{1000 * ingest_times[0]:.1f}, last "
              f"{1000 * ingest_times[len(batches) - 1]:.1f})",
              f"  refresh mean {refresh_mean:.4f} s, p50 "
              f"{median_s(refresh_times):.4f} s  (slow_op_ms is the mean; "
              f"{len(refresh_times)} samples)"]
    layers = {}
    if recorder is not None:
        layers, lines = _layers(recorder.spans, stream, reports, ingest_times,
                                len(batches))
        report += lines
    return dict(attempted=len(ingest_times) + len(refresh_times), failed=0,
                metrics=metrics, layers=layers, report=report,
                verify=lambda: verify(stream, reports, batches, work))


def growth_ms_per_kdoc(ingest_times: List[float], reports, n_batches: int) -> float:
    """Slope of batch latency against documents already stored (ms/1000)."""
    stored, total = [], 0
    for report in reports:
        stored.append(total)
        total += report.n_documents
    x = np.tile(np.asarray(stored, dtype=float), len(ingest_times) // n_batches)
    slope = np.polyfit(x / 1000.0, 1000.0 * np.asarray(ingest_times), 1)[0]
    return float(slope)


def _dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def _layers(spans, stream: TopicStream, reports, ingest_times, n_batches):
    ingest = layer_metrics(spans, "op.ingest", "ingest", INGEST_LAYERS)
    refresh = layer_metrics(spans, "op.refresh", "refresh", REFRESH_LAYERS)
    layers = {name: (value, "ms") for name, value in {**ingest, **refresh}.items()}
    layers["stream.ingest_growth_ms_per_kdoc"] = (
        growth_ms_per_kdoc(ingest_times, reports, n_batches), "ms/kdoc")
    root = stream.root
    layers["stream.counts_bytes"] = (_dir_bytes(root, "counts.npz"), "bytes")
    layers["stream.stats_bytes"] = (_dir_bytes(root / "stats"), "bytes")
    layers["stream.log_bytes"] = (_dir_bytes(root / "log", "**/*"), "bytes")
    layers["trace.est_overhead_pct"] = (
        estimated_overhead_pct(spans, ["op.ingest", "op.refresh"]), "%")
    lines = (table_lines("ingest", layer_rows(ingest, "ingest"),
                         ingest["ingest.op_ms"], "op_ms, docs_per_s")
             + table_lines("refresh", layer_rows(refresh, "refresh"),
                           refresh["refresh.op_ms"], "slow_op_ms"))
    return layers, lines
