"""Run the sentbench CLI in this process, timing the calls into its layers.

    python3 launch.py MARK_FILE TRACE_FILE|- CLI_ARGS...

The benchmark starts one such process per CLI invocation. The process writes
to MARK_FILE the CLOCK_MONOTONIC time of the first cell, that is the first
call of ``runner.run_task`` or ``runner.sentence_matrix``, its own peak
resident memory and the path of the imported ``sentbench`` package. With a
TRACE_FILE other than ``-`` it also wraps every entry point in ENTRY_POINTS
and writes the recorded spans there as JSON when the CLI returns.

Wrappers replace a function under every name that refers to it in a loaded
``sentbench`` module, so calls are seen whether a caller imported the name or
reaches it through its module. An entry point that no longer exists is
skipped: its span reads as 0 calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# (module, function, span name). Functions sharing a span name form one layer
# metric, e.g. both task-file parsers count as tasks.load.
ENTRY_POINTS = (
    ("lexicon", "load_word_vectors", "lexicon.load_word_vectors"),
    ("lexicon", "load_sentence_vector_table", "lexicon.load_sentence_vector_table"),
    ("lexicon", "random_table", "lexicon.random_table"),
    ("tasks", "load_classification_tsv", "tasks.load"),
    ("tasks", "load_sick_tsv", "tasks.load"),
    ("tasks", "synthetic_classification", "tasks.synthetic"),
    ("tasks", "synthetic_relatedness", "tasks.synthetic"),
    ("aggregate", "embed_corpus", "aggregate.embed_corpus"),
    ("probe", "pair_features", "probe.pair_features"),
    ("probe", "train_classifier", "probe.train"),
    ("probe", "train_relatedness", "probe.train"),
    ("probe", "predict_proba", "probe.predict_proba"),
    ("report", "matrix_to_csv", "report.render"),
    ("report", "matrix_to_json", "report.render"),
    ("report", "matrix_to_markdown", "report.render"),
    ("report", "line_plot_svg", "report.render"),
    ("runner", "run_matrix", "runner.run_matrix"),
    ("runner", "run_task", "runner.run_task"),
    ("runner", "export_sentence_vectors", "runner.export"),
)
FIRST_CELL = ("run_task", "sentence_matrix")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image. Unlike rusage's
    maxrss, VmHWM does not carry over the memory of the process that
    spawned this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _file_bytes(args, kwargs) -> int:
    stream = args[0] if args else kwargs.get("stream")
    try:
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _tokens(args, kwargs) -> int:
    sentences = args[0] if args else kwargs.get("sentences")
    try:
        return sum(len(s) for s in sentences)
    except TypeError:
        return 0


def _sample_epochs(args, kwargs) -> int:
    epochs = next((a.epochs for a in (*args, *kwargs.values()) if hasattr(a, "epochs")), 0)
    try:
        return len(args[0]) * epochs
    except (IndexError, TypeError):
        return 0


# Work counted per call, beside the span's time.
COUNTERS = {
    "lexicon.load_word_vectors": _file_bytes,
    "lexicon.load_sentence_vector_table": _file_bytes,
    "aggregate.embed_corpus": _tokens,
    "probe.train": _sample_epochs,
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent, cpu_start, cpu_end,
    count]. The parent of a span opened in a worker thread with nothing open
    is the innermost span open in the main thread, so cells run by a pool
    nest under the run_matrix that submitted them."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else -1)
            span = [name, 0.0, 0.0, parent, time.process_time(), 0.0, count]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                span[5] = time.process_time()
                stack.pop()

        return traced


def _patch(fn, wrapper) -> None:
    """Replace ``fn`` under every name a loaded sentbench module binds it to."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sentbench" or name.startswith("sentbench.")):
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapper)


def install(tracer: Tracer | None, on_first_cell) -> None:
    """Wrap every entry point in a span when tracing, and call
    ``on_first_cell`` before each call of a FIRST_CELL function."""
    wrapped = {}
    if tracer is not None:
        for module_name, attr, span in ENTRY_POINTS:
            module = sys.modules.get(f"sentbench.{module_name}")
            fn = getattr(module, attr, None)
            if fn is not None and fn not in wrapped:
                wrapped[fn] = tracer.wrap(fn, span)
    runner = sys.modules.get("sentbench.runner")
    for attr in FIRST_CELL:
        fn = getattr(runner, attr, None)
        if fn is None:
            continue
        inner = wrapped.get(fn, fn)

        @functools.wraps(inner)
        def first(*args, _inner=inner, **kwargs):
            on_first_cell()
            return _inner(*args, **kwargs)

        wrapped[fn] = first
    for fn, wrapper in wrapped.items():
        _patch(fn, wrapper)


def main(argv: list[str]) -> int:
    mark_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    from sentbench import cli

    first_cell = []

    def on_first_cell():
        if not first_cell:
            first_cell.append(_clock())

    tracer = Tracer() if trace_path != "-" else None
    install(tracer, on_first_cell)
    try:
        return cli.main(cli_args)
    finally:
        with open(mark_path, "w", encoding="utf-8") as fh:
            json.dump({"first_cell": first_cell[0] if first_cell else None,
                       "peak_rss_mb": _peak_rss_mb(),
                       "package": os.path.dirname(cli.__file__)}, fh)
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
