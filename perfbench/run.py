"""End-to-end benchmark for the sentbench CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed under .bench_build/, then runs the real CLI
(``eval``, ``sweep``, ``embed``) as child processes, one at a time, for about S
seconds, and checks every output. One sample is one pass over the workload's
CLI invocations. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, each the median over the run's samples.
With ``--trace 1`` untraced and traced samples alternate and the metrics are
the per-layer ones, read from spans recorded around calls into each sentbench
module (see launch.py). Lines before the last give each metric with its unit,
sample count and range, the error rate and the run environment.

Workloads and their predicted effects are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
RUN_LIMIT_S = 170  # a workload run kills any CLI process still running after this
MIN_SAMPLES = 5  # untraced samples per run, so the median drops outliers
MEASURE_RANGE = {"accuracy": (0.0, 1.0), "pearson": (-1.0, 1.0)}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads(workers: int) -> int:
    """BLAS threads per cell thread, so that the two multiplied stay within
    the CPUs this process may use."""
    return max(1, _nproc() // workers)


class Checkout:
    """The source tree under test."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.package = os.path.join(self.src, "sentbench")

    def environment(self, workers: int) -> dict:
        config = getattr(np, "__config__", None)
        try:
            blas = config.CONFIG["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas.get('version', '')}".strip()
        except (AttributeError, KeyError, TypeError):
            blas = "unknown"
        digest = hashlib.sha256()
        for name in sorted(os.listdir(self.package)):
            if name.endswith(".py"):
                with open(os.path.join(self.package, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
        sha = None
        if os.path.isdir(os.path.join(self.root, ".git")):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                 capture_output=True, text=True, check=False)
            sha = out.stdout.strip() or None
        return {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": _blas_threads(workers),
            "cell_workers": workers,
            "nproc": _nproc(),
            "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16],
        }


class Child:
    """One CLI process: wall time from just before spawn to reaping, CPU time
    from the rusage of the children this process reaped meanwhile (only this
    one), and set-up end and peak RSS as the process reported them. A process
    still running at ``deadline`` is killed."""

    def __init__(self, checkout: Checkout, work: str, step: workloads.Step, traced: bool,
                 tag: str, deadline: float):
        self.mark = os.path.join(work, f"{tag}.mark.json")
        self.trace = os.path.join(work, f"{tag}.trace.json") if traced else "-"
        self.log = os.path.join(work, f"{tag}.log")
        threads = str(_blas_threads(step.workers))
        env = dict(os.environ, PYTHONPATH=checkout.src, PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        argv = [sys.executable, LAUNCH, self.mark, self.trace, *step.argv]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(self.log, "wb") as log:
            self.start = _clock()
            try:
                self.returncode = subprocess.run(
                    argv, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(0.0, deadline - _clock())).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                self.returncode = -signal.SIGKILL
            self.end = _clock()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.first_cell = self.package = None
        self.rss_mb = 0.0
        if os.path.exists(self.mark):
            with open(self.mark, encoding="utf-8") as fh:
                mark = json.load(fh)
            self.first_cell, self.package = mark["first_cell"], mark["package"]
            self.rss_mb = mark["peak_rss_mb"]

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def output(self) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def spans(self) -> list:
        with open(self.trace, encoding="utf-8") as fh:
            return json.load(fh)


class Sample:
    """One pass over a workload's steps, with the output checks applied."""

    def __init__(self, checkout: Checkout, work: str, steps: list[workloads.Step],
                 traced: bool, index: int, deadline: float):
        out = os.path.join(work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        self.children: list[Child] = []
        self.problems: list[str] = []
        self.cells = sum(s.cells for s in steps)
        self.failed_cells = 0
        self.sentences = 0
        self.digests: dict[str, str] = {}
        for n, step in enumerate(steps):
            matrices = [o for o in step.outputs if o.startswith("results") and o.endswith(".json")]
            child = Child(checkout, work, step, traced, f"s{index}-{n}", deadline)
            self.children.append(child)
            if child.returncode != 0:
                self.failed_cells += step.cells
                self.problems.append(f"`{' '.join(step.argv)}` exited with "
                                     f"{child.returncode}:\n{child.output()[-2000:]}")
                continue
            if child.package != checkout.package:
                self.problems.append(f"imported sentbench from {child.package}, "
                                     f"not {checkout.package}")
            if child.first_cell is None:
                self.problems.append("no cell call was seen, so set-up time is unknown")
            self.sentences += step.sentences
            for name in step.outputs:
                path = os.path.join(out, name)
                if not os.path.exists(path):
                    self.problems.append(f"missing output {name}")
                    continue
                with open(path, "rb") as fh:
                    data = fh.read()
                self.digests[name] = hashlib.sha256(data).hexdigest()
                if name in matrices:
                    self.problems += check_cells(name, data, step.cells // len(matrices))

    @property
    def ok(self) -> bool:
        return not self.problems

    def spans(self) -> list:
        """The spans of all the sample's processes, parents re-indexed."""
        merged: list = []
        for child in self.children:
            offset = len(merged)
            for span in child.spans():
                if span[3] >= 0:
                    span[3] += offset
                merged.append(span)
        return merged

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def setup_s(self) -> float:
        return sum(c.first_cell - c.start for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def check_cells(name: str, data: bytes, expected: int) -> list[str]:
    """Every cell is present, finite and inside its measure's range."""
    try:
        cells = json.loads(data)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{name}: unreadable results ({exc})"]
    problems = []
    if len(cells) != expected:
        problems.append(f"{name}: {len(cells)} cells, expected {expected}")
    for cell in cells:
        lo, hi = MEASURE_RANGE.get(cell.get("measure"), (math.nan, math.nan))
        value = cell.get("value")
        if not isinstance(value, (int, float)) or not lo <= value <= hi:
            problems.append(f"{name}: cell {cell.get('method')}/{cell.get('task')} "
                            f"has {cell.get('measure')} {value!r}")
    return problems


def check_export(work: str, data: dict) -> list[str]:
    """The exported sentence vectors equal an independent NumPy mean of the
    unit-normalised word vectors of each sentence's in-vocabulary tokens."""
    vecs, sentences = data["vectors"], data["sentences"]
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    expected = np.zeros((len(sentences), vecs.shape[1]))
    for i, toks in enumerate(sentences):
        rows = [int(t[1:]) for t in toks if t.startswith("w")]
        if rows:
            expected[i] = unit[rows].mean(axis=0)
    ids, rows = [], []
    try:
        with open(os.path.join(work, data["exported"]), encoding="utf-8") as fh:
            for line in fh:
                sid, comps = line.rstrip("\n").split("\t")
                ids.append(sid)
                rows.append(np.array(comps.split(" "), dtype=np.float64))
    except (OSError, ValueError) as exc:
        return [f"exported vectors unreadable ({exc})"]
    if ids != [str(i) for i in range(len(sentences))]:
        return ["exported sentence ids are not 0..n-1 in order"]
    if any(row.shape != expected.shape[1:] for row in rows):
        return [f"exported rows do not all have {expected.shape[1]} components"]
    err = float(np.max(np.abs(np.stack(rows) - expected)))
    return [] if err <= 1e-9 else [f"exported vectors differ from the oracle by {err:g}"]


# ---------------------------------------------------------------- metrics

def metric_units(root: str, trace: bool) -> dict[str, str]:
    """Units by name of the metrics a run reports, per-layer when tracing and
    end-to-end otherwise, as BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(samples: list[Sample]) -> dict[str, list[float]]:
    return {
        "wall_s": [s.wall_s for s in samples],
        "setup_s": [s.setup_s for s in samples],
        "sentences_per_s": [s.sentences / s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
    }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _self_time(spans: list, name: str) -> float:
    """Duration of the named spans minus the part their direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[3], []).append((span[1], span[2]))
    total = 0.0
    for i, span in enumerate(spans):
        if span[0] == name:
            inside = [(max(lo, span[1]), min(hi, span[2])) for lo, hi in children.get(i, [])]
            total += (span[2] - span[1]) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced sample. A metric of a span that never
    occurred is absent and reads as 0."""
    out: dict[str, float] = {}
    counts: dict[str, int] = {}
    for name, start, end, _, _, _, n in spans:
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        counts[name] = counts.get(name, 0) + n
    busy = {name[:-2]: t for name, t in out.items() if name.endswith(".s")}
    lexicon, svt = "lexicon.load_word_vectors", "lexicon.load_sentence_vector_table"
    matrix = [s for s in spans if s[0] == "runner.run_matrix"]
    tasks = sorted(s[2] - s[1] for s in spans if s[0] == "runner.run_task")
    out.update({
        f"{lexicon}.bytes": counts.get(lexicon, 0),
        f"{lexicon}.mb_per_s": _ratio(counts.get(lexicon, 0) / 1e6, busy.get(lexicon, 0.0)),
        f"{svt}.bytes": counts.get(svt, 0),
        "aggregate.tokens": counts.get("aggregate.embed_corpus", 0),
        "aggregate.tokens_per_s": _ratio(counts.get("aggregate.embed_corpus", 0),
                                         busy.get("aggregate.embed_corpus", 0.0)),
        "probe.train.sample_epochs": counts.get("probe.train", 0),
        "probe.train.sample_epochs_per_s": _ratio(counts.get("probe.train", 0),
                                                  busy.get("probe.train", 0.0)),
        "runner.export.self_s": _self_time(spans, "runner.export"),
        "runner.run_task.p50_s": statistics.median(tasks) if tasks else 0.0,
        "runner.run_task.max_s": tasks[-1] if tasks else 0.0,
        "runner.self_s": _self_time(spans, "runner.run_matrix"),
        "runner.parallelism": _ratio(sum(s[5] - s[4] for s in matrix),
                                     sum(s[2] - s[1] for s in matrix)),
    })
    return out


# ---------------------------------------------------------------- driver

def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(checkout: Checkout, name: str, seed: int, seconds: float, trace: bool) -> bool:
    deadline = _clock() + RUN_LIMIT_S
    work = os.path.join(checkout.root, ".bench_build", "perfbench", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(checkout, work, name, seed, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(checkout: Checkout, work: str, name: str, seed: int, seconds: float,
             trace: bool, deadline: float) -> bool:
    wl = workloads.WORKLOADS[name](work, seed)
    problems: list[str] = []
    reference: dict[str, str] | None = None
    reference_name = "the first sample"
    serial_step = wl.data.get("serial")
    serial = Sample(checkout, work, [serial_step], False, -1, deadline) if serial_step else None
    if serial is not None:
        problems += serial.problems
        reference, reference_name = serial.digests, "the --workers 1 run"

    plain: list[Sample] = []
    traced: list[Sample] = []
    start = _clock()
    while True:
        kinds = [False, True] if trace else [False]
        if len(plain) % 2:  # traced and untraced samples take turns going first
            kinds.reverse()
        batch = []
        for kind in kinds:
            index = 2 * len(traced) + 1 if kind else 2 * len(plain)
            batch.append(Sample(checkout, work, wl.steps, kind, index, deadline))
            (traced if kind else plain).append(batch[-1])
            if "exported" in wl.data and not kind and len(plain) == 1 and plain[0].ok:
                problems += check_export(work, wl.data)
        for sample in batch:
            problems += sample.problems
            if sample.ok and reference is None:
                reference = sample.digests
            elif sample.ok and sample.digests != reference:
                changed = sorted(k for k, v in sample.digests.items() if v != reference.get(k))
                problems.append(f"outputs differ from {reference_name}: {changed}")
        elapsed = _clock() - start
        enough = len(plain) >= (1 if trace else MIN_SAMPLES)
        if not all(s.ok for s in batch) or enough and elapsed + elapsed / len(plain) > seconds:
            break

    samples = plain + traced
    attempted = sum(s.cells for s in samples)
    failed = min(attempted, sum(s.failed_cells for s in samples) + len(problems))
    good = [s for s in plain if s.ok]
    series = end_to_end(good)
    units = metric_units(checkout.root, trace)
    if trace:
        layers = [layer_metrics(s.spans()) for s in traced if s.ok]
        values = {n: [layer.get(n, 0) for layer in layers] for n in units}
        values["trace.overhead_s"] = [t.wall_s - p.wall_s for p, t in zip(plain, traced)
                                      if p.ok and t.ok]
    else:
        values = {n: series[n] for n in units}

    env = checkout.environment(max(s.workers for s in wl.steps))
    print(f"# workload {name} seed {seed}: {len(plain)} samples"
          + (f", {len(traced)} traced" if trace else "")
          + f", error_rate {failed / attempted:.4f} ({failed}/{attempted} cells)")
    if serial is not None:
        print(f"#   serial_wall_s = {serial.wall_s:.6g} s (the --workers 1 run)")
    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    metrics = {}
    for metric, unit in units.items():
        vals = values[metric]
        value = _median_or_zero(vals)
        metrics[metric] = {"value": value, "unit": unit}
        spread = f" [{min(vals):.6g} .. {max(vals):.6g}]" if len(vals) > 1 else ""
        print(f"#   {metric} = {value:.6g} {unit} (median of {len(vals)}){spread}")
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout = Checkout(os.getcwd())
    if not os.path.isfile(os.path.join(checkout.package, "cli.py")):
        print(f"error: no sentbench sources under {checkout.src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_workload(checkout, name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
