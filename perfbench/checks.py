"""Output checks, computed apart from the program.

Every function takes the program's output plus what it was computed from,
recomputes the expected value with plain Python (or checks a property the
method must have), and raises :class:`~common.CheckFailed` on a mismatch.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from common import check

Phrase = Tuple[int, ...]


def recount_phrases(chunks: Iterable[Sequence[int]],
                    min_support: int) -> Dict[Phrase, int]:
    """Frequent contiguous n-grams of ``chunks`` at ``min_support``.

    A plain level-wise recount: every n-gram inside a chunk whose two
    (n-1)-grams are frequent is counted, and those reaching the support are
    kept (downward closure, so no frequent n-gram is skipped).
    """
    chunks = [tuple(chunk) for chunk in chunks if chunk]
    level = Counter(word for chunk in chunks for word in chunk)
    frequent = {(word,): count for word, count in level.items()
                if count >= min_support}
    result = dict(frequent)
    n = 2
    while frequent:
        counts: Counter = Counter()
        for chunk in chunks:
            for i in range(len(chunk) - n + 1):
                gram = chunk[i:i + n]
                if gram[:-1] in frequent and gram[1:] in frequent:
                    counts[gram] += 1
        frequent = {gram: count for gram, count in counts.items()
                    if count >= min_support}
        result.update(frequent)
        n += 1
    return result


def check_phrase_table(table: Dict[Phrase, int], chunks: Iterable[Sequence[int]],
                       min_support: int) -> None:
    """The mined table equals the independent recount."""
    expected = recount_phrases(chunks, min_support)
    missing = set(expected) - set(table)
    extra = set(table) - set(expected)
    check(not missing, f"phrase table lacks {len(missing)} frequent phrases, "
                       f"e.g. {sorted(missing)[:3]}")
    check(not extra, f"phrase table holds {len(extra)} infrequent phrases, "
                     f"e.g. {sorted(extra)[:3]}")
    wrong = [p for p in expected if table[p] != expected[p]]
    check(not wrong, f"{len(wrong)} phrase counts differ from the recount, "
                     f"e.g. {wrong[:3]}")


def check_segmentation(documents: Sequence[Sequence[Phrase]],
                       doc_chunks: Sequence[Sequence[Sequence[int]]],
                       table: Dict[Phrase, int]) -> None:
    """Segments rebuild each document; multi-word segments are frequent."""
    check(len(documents) == len(doc_chunks),
          f"{len(documents)} segmented documents for {len(doc_chunks)} inputs")
    for d, (phrases, chunks) in enumerate(zip(documents, doc_chunks)):
        flat = [w for phrase in phrases for w in phrase]
        tokens = [w for chunk in chunks for w in chunk]
        check(flat == tokens, f"document {d}: segments do not concatenate "
                              f"back to its chunk tokens")
        for phrase in phrases:
            check(len(phrase) < 2 or tuple(phrase) in table,
                  f"document {d}: multi-word segment {tuple(phrase)} is not "
                  f"a frequent phrase")


def recount_topic_counts(documents: Sequence[Sequence[Phrase]],
                         cliques: Sequence[Sequence[int]],
                         vocabulary_size: int, n_topics: int
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N_{x,k}, N_{d,k} and N_k recomputed from the clique assignments."""
    word_topic = np.zeros((vocabulary_size, n_topics), dtype=np.int64)
    doc_topic = np.zeros((len(documents), n_topics), dtype=np.int64)
    for d, (phrases, topics) in enumerate(zip(documents, cliques)):
        check(len(phrases) == len(topics),
              f"document {d}: {len(topics)} clique topics for "
              f"{len(phrases)} phrases")
        for phrase, k in zip(phrases, topics):
            for w in phrase:
                word_topic[w, k] += 1
            doc_topic[d, k] += len(phrase)
    return word_topic, doc_topic, word_topic.sum(axis=0)


def check_topic_counts(topic_word: np.ndarray, doc_topic: np.ndarray,
                       topic_totals: np.ndarray,
                       documents: Sequence[Sequence[Phrase]],
                       cliques: Sequence[Sequence[int]]) -> None:
    """The state's count matrices equal a recount from its assignments."""
    expected = recount_topic_counts(documents, cliques, topic_word.shape[0],
                                    topic_word.shape[1])
    for name, got, want in zip(("N_xk", "N_dk", "N_k"),
                               (topic_word, doc_topic, topic_totals), expected):
        check(np.array_equal(np.asarray(got), want),
              f"{name} differs from the recount over clique assignments")


def npz_arrays(path) -> Dict[str, np.ndarray]:
    """Every array member of an ``.npz`` file, read with plain NumPy."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: np.array(archive[name]) for name in archive.files}


def check_same_arrays(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray],
                      what: str, skip: Sequence[str] = ()) -> None:
    """Both array maps hold the same names with equal contents."""
    names = set(left) - set(skip)
    check(names == set(right) - set(skip),
          f"{what}: array names differ: {sorted(names ^ (set(right) - set(skip)))}")
    for name in sorted(names):
        check(np.array_equal(left[name], right[name]),
              f"{what}: array {name!r} differs")


def majority_accuracy(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Dominant-topic accuracy after mapping each predicted topic to the
    true topic most of its documents carry (majority vote)."""
    votes: Dict[int, Counter] = defaultdict(Counter)
    for p, t in zip(predicted, truth):
        votes[p][t] += 1
    mapping = {p: counter.most_common(1)[0][0] for p, counter in votes.items()}
    hits = sum(mapping[p] == t for p, t in zip(predicted, truth))
    return hits / max(1, len(truth))


def check_above_chance(accuracy: float, n_true_topics: int, what: str) -> None:
    """Accuracy must be at least twice the 1/T chance rate."""
    floor = 2.0 / n_true_topics
    check(accuracy >= floor, f"{what}: dominant-topic accuracy {accuracy:.3f} "
                             f"is not clearly above chance "
                             f"(needs >= {floor:.2f})")


def check_mixture(theta: Sequence[float], top_topics: Sequence[Sequence[float]],
                  n_topics: int, what: str) -> None:
    """θ is a distribution over K topics and ``top_topics`` agree with it."""
    check(len(theta) == n_topics, f"{what}: θ has {len(theta)} entries, "
                                  f"expected {n_topics}")
    check(all(p >= 0.0 for p in theta), f"{what}: θ has a negative entry")
    check(math.isclose(math.fsum(theta), 1.0, abs_tol=1e-9),
          f"{what}: θ sums to {math.fsum(theta)!r}, not 1")
    check(len(top_topics) >= 1, f"{what}: no top topics")
    ordered = sorted(theta, reverse=True)
    for rank, (k, p) in enumerate(top_topics):
        check(0 <= int(k) < n_topics and theta[int(k)] == p,
              f"{what}: top topic {k} carries {p!r}, θ says otherwise")
        check(p == ordered[rank],
              f"{what}: top topic #{rank} is not θ's rank-{rank} value")
