"""Run ``repro serve`` in this process, optionally with span wrappers.

Usage::

    python3 perfbench/serve_launcher.py [--spans PATH] serve --model m.npz ...

Everything after the optional ``--spans PATH`` goes to ``repro.cli.main``
unchanged.  With ``--spans`` the launcher wraps fold-in batches, text
preprocessing, sampler sweeps and metric writes with span recorders before
the server starts, and writes the spans to ``PATH`` once it has stopped.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import SRC

sys.path.insert(0, str(SRC))


def install_spans(recorder) -> None:
    """Wrap the serving path's public entry points."""
    from repro.core.infer import TopicInferencer
    from repro.text.preprocess import Preprocessor
    from repro.topicmodel.gibbs import BatchFoldInSampler
    from repro.utils.timing import MetricsRegistry

    recorder.wrap(TopicInferencer, "infer_texts_grouped", "core.infer")
    recorder.wrap(Preprocessor, "process_text", "text.preprocess")
    recorder.wrap(BatchFoldInSampler, "sweep", "core.infer.sweep")
    recorder.wrap(MetricsRegistry, "increment", "obs.metrics")
    recorder.wrap(MetricsRegistry, "observe", "obs.metrics")


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    recorder = None
    if spans_path is not None:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        install_spans(recorder)
    from repro.cli import main as repro_main
    code = repro_main(argv)
    if recorder is not None:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
