#!/usr/bin/env python3
"""Self-tests of the benchmark: smoke runs plus checks shown to bite.

Usage::

    python3 perfbench/selftest.py

1. Runs every workload at ``--smoke`` size, untraced and traced, and
   requires a correct result with no failed operation and every metric
   that ``BENCHMARK.json`` declares.
2. Feeds each output check a deliberately corrupted output and requires it
   to fail: a perturbed count matrix, a dropped frequent phrase, segments
   that no longer rebuild their document, a model bundle that does not
   load back equal, topic labels no better than chance, a wrong duplicate
   count, a published stream model that differs from the offline fit, an
   altered θ (once off its sum, once a permutation that only the solo
   comparison can see), and a non-200 reply, which must be counted as
   failed.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    THREAD_ENV,
    CheckFailed,
    prepare,
    scratch_dir,
)

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            assert set(result["metrics"]) == {e["name"] for e in declared}
            if trace:
                assert "sum of rows" in done.stdout, done.stdout
            print(f"ok   smoke {workload} trace={trace}: "
                  f"{result['attempted']} operations")


def expect_failure(what: str, action, needle: str) -> None:
    try:
        action()
    except CheckFailed as exc:
        assert needle in str(exc), f"{what}: unexpected failure {exc}"
        print(f"ok   {what} is rejected: {exc}")
        return
    raise AssertionError(f"{what} was not rejected")


def overwrite_array(path, name: str) -> None:
    """Add 1 to the first entry of one array of an ``.npz`` file in place."""
    import checks
    arrays = checks.npz_arrays(path)
    arrays[name].flat[0] += 1
    np.savez(path, **arrays)


def unrelated_labels(n: int):
    """Every document its own label: no topic model can beat chance."""
    return list(range(n))


def topmine_checks(work) -> None:
    import wl_topmine
    from repro.core.frequent_phrases import FrequentPhraseMiningResult
    from repro.datasets.registry import load_dataset
    from repro.utils.counter import HashCounter

    generated = load_dataset(wl_topmine.DATASET, n_documents=300, seed=3)
    seg_path, model_path = work / "seg.npz", work / "model.npz"
    mine_config, lda_config = wl_topmine.cli_configs(3, 20)
    corpus, mining, segmented = wl_topmine.mine_step(generated.texts,
                                                     mine_config, seg_path)
    seg, state, bundle = wl_topmine.fit_step(seg_path, model_path, lda_config)

    def verify(mining=mining, state=state, segmented=segmented,
               generated=generated):
        wl_topmine.verify(generated, corpus, mining, segmented, state, seg,
                          bundle, model_path)

    verify()
    state.topic_word_counts[0, 0] += 1
    expect_failure("perturbed count matrix", verify, "N_xk")
    state.topic_word_counts[0, 0] -= 1
    table = mining.counter.as_dict()
    dropped = next(p for p in sorted(table) if len(p) >= 2)
    del table[dropped]
    corrupted = FrequentPhraseMiningResult(
        counter=HashCounter(table), total_tokens=mining.total_tokens,
        min_support=mining.min_support, iterations=mining.iterations)
    expect_failure("dropped frequent phrase",
                   lambda: verify(mining=corrupted), "lacks 1 frequent")
    # Two segments of one document swapped: same words, wrong order.
    d = next(i for i, doc in enumerate(segmented)
             if len(doc.phrases) >= 2 and doc.phrases[0] != doc.phrases[1])
    shuffled = [SimpleNamespace(phrases=list(doc.phrases)) for doc in segmented]
    first = shuffled[d].phrases
    first[0], first[1] = first[1], first[0]
    expect_failure("segments that do not rebuild their document",
                   lambda: verify(segmented=shuffled), "concatenate back")
    expect_failure(
        "labels no better than chance",
        lambda: verify(generated=SimpleNamespace(
            document_topics=unrelated_labels(len(generated.texts)),
            spec=generated.spec)),
        "not clearly above chance")
    overwrite_array(model_path, "topic_word_counts")
    expect_failure("model bundle that does not load back equal", verify,
                   "does not load back equal")


def stream_checks(work) -> None:
    import wl_stream
    from repro.datasets.registry import load_dataset
    from repro.stream.updater import StreamConfig

    shape = wl_stream.SMOKE
    generated = load_dataset(
        wl_stream.DATASET, n_documents=shape["batch_docs"] * shape["n_batches"],
        seed=3)
    batches = wl_stream.make_batches(generated.texts, shape["batch_docs"],
                                     shape["n_batches"])
    stream, reports = wl_stream.run_round(
        work / "stream", batches, StreamConfig(seed=3, n_iterations=20),
        shape["refresh_every"], None, [], [])

    def verify(reports=reports):
        wl_stream.verify(stream, reports, batches, work)

    verify()
    miscounted = reports[:-1] + [replace(reports[-1],
                                         n_duplicates=reports[-1].n_duplicates + 1)]
    expect_failure("wrong duplicate count", lambda: verify(miscounted),
                   "appended/duplicate counts")
    overwrite_array(stream.current_model_path, "topic_word_counts")
    expect_failure("published model that differs from the offline fit",
                   verify, "published model vs offline fit")


def serve_checks(work) -> None:
    import wl_serve
    from repro.datasets.registry import load_dataset

    train = load_dataset(wl_serve.DATASET, n_documents=400, seed=3)
    queries = load_dataset(wl_serve.DATASET, n_documents=100, seed=4)
    model = wl_serve.fit_model(train.texts, 3, 20, work / "model.npz")
    server = wl_serve.Server(model, work)
    try:
        # Seed -1 is outside the API's range: request 0 answers 400.
        result = wl_serve.run_loadgen(server.url, queries.texts, -1, 2.0, work)
    finally:
        server.stop()
    records = result["records"]
    latencies, failed = wl_serve.split_records(records)
    assert failed == 1 and records[0][1] == 400, records[:2]
    print(f"ok   a non-200 reply is counted as failed "
          f"({failed} of {len(records)})")

    def verify(records=records):
        wl_serve.verify(records, queries.texts, queries.document_topics, -1,
                        model, queries.spec.n_topics, server.process.returncode)

    verify()
    expect_failure(
        "served labels no better than chance",
        lambda: wl_serve.verify(records, queries.texts,
                                unrelated_labels(len(queries.texts)), -1, model,
                                queries.spec.n_topics,
                                server.process.returncode),
        "not clearly above chance")

    # records[1] is the first successful reply, so the solo sample holds it.
    def altered(change):
        index, status, latency, body = records[1]
        reply = json.loads(body)
        change(reply["documents"][0])
        return [records[0], [index, status, latency, json.dumps(reply)]] + records[2:]

    def off_sum(document):
        document["theta"][0] += 0.01

    def permuted(document):
        # Swap the largest and smallest θ entries and re-rank: still a valid
        # mixture with consistent top topics, but not what solo inference
        # gives.
        theta = document["theta"]
        high, low = int(np.argmax(theta)), int(np.argmin(theta))
        theta[high], theta[low] = theta[low], theta[high]
        order = sorted(range(len(theta)), key=lambda k: -theta[k])
        document["top_topics"] = [[k, theta[k]]
                                  for k in order[:len(document["top_topics"])]]

    expect_failure("θ off its sum", lambda: verify(altered(off_sum)), "sums to")
    expect_failure("permuted θ", lambda: verify(altered(permuted)),
                   "differs from solo")


def main() -> int:
    prepare()
    smoke_runs()
    with scratch_dir() as work:
        topmine_checks(work)
        stream_checks(work)
        serve_checks(work)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
