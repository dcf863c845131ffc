"""``topmine-abstracts``: the CLI's two-step batch pipeline, round after round.

Each round runs the **mine** step (preprocess → Algorithm 1 → Algorithm 2 →
save the segmentation bundle) and then the **fit** step (load the
segmentation bundle → PhraseLDA → build and save the model bundle) over one
dblp-abstracts corpus, with the ``repro mine``/``repro fit`` defaults
(auto-scaled support, K=10, 100 sweeps).  This is the paper's Figure 8 split
into phrase mining and topic modeling.
"""

from __future__ import annotations

import time
from dataclasses import replace
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
from repro.core.frequent_phrases import FrequentPhraseMiner
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.segmentation import CorpusSegmenter
from repro.core.topmine import ToPMine, ToPMineConfig
from repro.datasets.registry import load_dataset
from repro.io import artifacts
from repro.io.artifacts import ModelBundle, SegmentationBundle
from repro.topicmodel.gibbs import resolve_engine

DATASET = "dblp-abstracts"
N_DOCS = 3000
SMOKE_DOCS = 300
WARMUP_DOCS = 200
N_TOPICS = 10
N_ITERATIONS = 100

MINE_LAYERS = ["text.preprocess", "core.mining", "core.segmentation",
               "io.save_segmentation"]
FIT_LAYERS = ["io.load_segmentation", "core.phrase_lda", "io.build_model",
              "io.save_model"]


def cli_configs(seed: int, n_iterations: int
                ) -> Tuple[ToPMineConfig, PhraseLDAConfig]:
    """The ``repro mine`` and ``repro fit`` defaults (K=10, auto support)."""
    return (ToPMineConfig(min_support=None, seed=seed),
            PhraseLDAConfig(n_topics=N_TOPICS, n_iterations=n_iterations,
                            seed=seed, engine=resolve_engine("auto")))


def mine_step(texts: List[str], config: ToPMineConfig, path: Path,
              source: str = DATASET):
    """``repro mine``: preprocess, mine, segment, save the bundle."""
    pipeline = ToPMine(config)
    corpus = pipeline.preprocess(texts, name=source)
    mining = pipeline.mine_phrases(corpus)
    segmented = pipeline.segment(corpus, mining)
    artifacts.save_bundle(path, SegmentationBundle(
        mining=mining, segmented=segmented,
        construction=config.construction_config(),
        preprocess=config.preprocess,
        metadata={"source": source, "seed": config.seed}))
    return corpus, mining, segmented


def fit_step(seg_path: Path, model_path: Path, config: PhraseLDAConfig,
             source: str = DATASET):
    """``repro fit --segmentation``: load, PhraseLDA, build and save."""
    seg = artifacts.load_segmentation(seg_path)
    state = PhraseLDA(config).fit(seg.segmented)
    bundle = ModelBundle.from_fit(
        seg.segmented, state, seg.mining, construction=seg.construction,
        preprocess=seg.preprocess,
        metadata={"source": source, "seed": config.seed,
                  "engine": config.engine,
                  "n_iterations": config.n_iterations})
    artifacts.save_bundle(model_path, bundle)
    return seg, state, bundle


def install_spans(recorder) -> None:
    """Wrap the public entry points the two steps call."""
    recorder.wrap(ToPMine, "preprocess", "text.preprocess")
    recorder.wrap(FrequentPhraseMiner, "mine", "core.mining")
    recorder.wrap(CorpusSegmenter, "segment", "core.segmentation")
    recorder.wrap(artifacts, "save_bundle",
                  lambda path, bundle, **_: f"io.save_{bundle.kind}")
    recorder.wrap(artifacts, "load_segmentation", "io.load_segmentation")
    recorder.wrap(PhraseLDA, "fit", "core.phrase_lda")
    recorder.wrap(ModelBundle, "from_fit", "io.build_model")


def verify(generated, corpus, mining, segmented, state, seg, bundle,
           model_path: Path) -> None:
    """Every output of the last round against an independent computation."""
    table = mining.counter.as_dict()
    checks.check_phrase_table(
        table, [chunk for doc in corpus for chunk in doc.chunks],
        mining.min_support)
    documents = [doc.phrases for doc in segmented]
    checks.check_segmentation(documents, [doc.chunks for doc in corpus], table)
    checks.check_topic_counts(state.topic_word_counts, state.doc_topic_counts,
                              state.topic_counts, documents,
                              state.clique_assignments)
    check([doc.phrases for doc in seg.segmented] == documents
          and seg.mining.counter.as_dict() == table,
          "segmentation bundle does not load back to what was saved")
    saved = checks.npz_arrays(model_path)
    for name in ("topic_word_counts", "doc_topic_counts", "topic_counts"):
        check(np.array_equal(saved[name], getattr(bundle, name)),
              f"model bundle array {name} does not load back equal")
    check(artifacts.load_model(model_path).topical_frequencies
          == bundle.topical_frequencies,
          "model bundle topical frequencies do not load back equal")
    predicted = np.argmax(state.doc_topic_counts, axis=1).tolist()
    checks.check_above_chance(
        checks.majority_accuracy(predicted, generated.document_topics),
        generated.spec.n_topics, "fitted model")


def run(seed: int, seconds: float, smoke: bool, recorder, clock, work: Path):
    n_docs = SMOKE_DOCS if smoke else N_DOCS
    n_iterations = 20 if smoke else N_ITERATIONS
    with clock.inputs():
        generated = load_dataset(DATASET, n_documents=n_docs, seed=seed)
    texts = generated.texts
    seg_path, model_path = work / "seg.npz", work / "model.npz"
    mine_config, lda_config = cli_configs(seed, n_iterations)
    # Warm-up rounds on a slice: first calls, kernel load, page cache.
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        mine_step(texts[:WARMUP_DOCS], mine_config, seg_path)
        fit_step(seg_path, model_path, replace(lda_config, n_iterations=10))
        clock.setup_repeats.append(time.perf_counter() - start)

    if recorder is not None:
        install_spans(recorder)
    mine_times: List[float] = []
    fit_times: List[float] = []
    models = set()
    begin = time.perf_counter()
    for _ in whole_rounds(seconds):
        start = time.perf_counter()
        with op_span(recorder, "op.mine"):
            corpus, mining, segmented = mine_step(texts, mine_config,
                                                  seg_path)
        middle = time.perf_counter()
        with op_span(recorder, "op.fit"):
            seg, state, bundle = fit_step(seg_path, model_path, lda_config)
        mine_times.append(middle - start)
        fit_times.append(time.perf_counter() - middle)
        models.add(state.topic_word_counts.tobytes())
    wall = time.perf_counter() - begin
    if recorder is not None:
        recorder.unwrap_all()

    rounds = len(mine_times)
    mine_p50, fit_p50 = median_s(mine_times), median_s(fit_times)
    metrics = {
        "setup_s": (clock.setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "docs_per_s": (rounds * n_docs / wall, "docs/s"),
        "op_ms": (1000 * mine_p50, "ms"),
        "slow_op_ms": (1000 * fit_p50, "ms"),
    }
    report = [f"topmine-abstracts: {rounds} rounds of mine + fit over "
              f"{n_docs} {DATASET} documents",
              f"  mine_p50_s {mine_p50:.4f} s  (op_ms; {rounds} samples)",
              f"  fit_p50_s  {fit_p50:.4f} s  (slow_op_ms; {rounds} samples)"]
    layers = {}
    if recorder is not None:
        layers, lines = _layers(recorder.spans, segmented, mining, corpus,
                                n_iterations, seg_path, model_path)
        report += lines

    def verify_outputs() -> None:
        check(len(models) == 1, "rounds with the same inputs and seed fitted "
                                "different models")
        verify(generated, corpus, mining, segmented, state, seg, bundle,
               model_path)

    return dict(attempted=2 * rounds, failed=0, metrics=metrics,
                layers=layers, report=report, verify=verify_outputs)


def _layers(spans, segmented, mining, corpus, n_iterations, seg_path,
            model_path):
    """Per-layer metrics and table lines of a traced run."""
    mine = layer_metrics(spans, "op.mine", "mine", MINE_LAYERS)
    fit = layer_metrics(spans, "op.fit", "fit", FIT_LAYERS)
    n_cliques = segmented.num_phrases
    layers = {name: (value, "ms") for name, value in {**mine, **fit}.items()}
    layers.update({
        "topicmodel.ns_per_clique_sweep": (
            fit["fit.core.phrase_lda_ms"] * 1e6 / (n_cliques * n_iterations),
            "ns"),
        "text.tokens": (corpus.num_tokens, "count"),
        "core.frequent_phrases": (mining.num_frequent_phrases(), "count"),
        "core.multiword_share": (
            sum(doc.num_multiword_phrases for doc in segmented) / n_cliques,
            "ratio"),
        "io.segmentation_bytes": (seg_path.stat().st_size, "bytes"),
        "io.model_bytes": (model_path.stat().st_size, "bytes"),
        "trace.est_overhead_pct": (
            estimated_overhead_pct(spans, ["op.mine", "op.fit"]), "%"),
    })
    lines = (table_lines("mine step", layer_rows(mine, "mine"),
                         mine["mine.op_ms"], "op_ms")
             + table_lines("fit step", layer_rows(fit, "fit"),
                           fit["fit.op_ms"], "slow_op_ms"))
    return layers, lines
