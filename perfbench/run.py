"""Benchmark for beziertrace: seeded documents through the command line.

    python3 perfbench/run.py --workload star_page --seed 1 --seconds 30 --trace 0

Builds the workload's pool of input files from the seed, then vectorizes
them through ``beziertrace.cli.main`` (``trace``, then ``fit --json`` with
the default ``--threads``) in a closed loop, one document at a time, until
``--seconds`` have been measured.  Every document's outputs are checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Earlier lines give the environment, the output hashes and,
for a traced run, the self time of every layer.

Document times are reported in units of a fixed pure-Python reference
workload timed between documents (see ``reference_s``), because a shared
host's speed drifts more between runs than any bound could allow; the
wall-clock figures are printed on a line of their own for reading.

The program is imported from ``src/`` and the shape builders from
``tests/helpers.py`` of the checkout that holds this file; without them the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HELPERS = os.path.join(ROOT, "tests", "helpers.py")
WORK = os.path.join(HERE, "work")

# fresh interpreters timed for setup_s; the reported value is their median
SETUP_RUNS = 9
# timed runs of the reference work between two documents; see reference_s
REF_RUNS = 3
_RefPoint = collections.namedtuple("_RefPoint", "x y")


def _load_helpers():
    spec = importlib.util.spec_from_file_location("bench_helpers", HELPERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_setup() -> float:
    """Median wall seconds from a fresh interpreter to imported cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import beziertrace.cli"]
    # an installed package has its bytecode compiled already
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reference_work() -> None:
    """Fixed pure-Python work in three parts of about equal time, one for
    each kind of work the pipeline does: float arithmetic on small tuples,
    as in fitting and metrics; scattered reads and writes of a
    megabyte-sized list, as in tracing; and dict, list and sort operations.
    It calls nothing in the program, so no change to the program changes
    its time."""
    pts = [_RefPoint(i * 0.5, (i % 17) * 0.25) for i in range(2500)]
    total = 0.0
    for k in range(8):
        u = k / 7
        a, b = (1 - u) ** 3, 3 * u * (1 - u) ** 2
        c, d = 3 * u * u * (1 - u), u ** 3
        for p in pts:
            q = _RefPoint(a * p.x + b * p.y, c * p.x + d * p.y)
            total += math.hypot(q.x - p.x, q.y - p.y)
    n = 1 << 20
    labels = [0] * n
    for i in range(60000):
        j = (i * 7919) % n
        if labels[j] == 0:
            labels[j] = i
    counts: dict[int, int] = {}
    rows = []
    for i in range(12000):
        x = (i * 0.37) % 13.0
        rows.append((i % 97, math.hypot(x, i % 7)))
        counts[i % 1021] = counts.get(i % 1021, 0) + 1
    rows.sort()


def reference_s() -> float:
    """Median wall seconds of REF_RUNS runs of the reference work.

    On a shared host the interpreter's speed drifts by half again over tens
    of seconds, longer than a whole run, and the drift slows the program and
    the reference work together, if not by the same factor.  A document's
    time divided by the reference time measured just before and after it
    therefore spreads from run to run about half as much as its wall time."""
    times = []
    for _ in range(REF_RUNS):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Document:
    """One input file and the outputs the CLI writes for it."""

    def __init__(self, index: int, path: str, kind: str, work: str):
        self.index = index
        self.input = path
        self.kind = kind
        self.contours = (path if kind == "contours"
                         else os.path.join(work, f"doc{index}.contours.json"))
        self.base = os.path.join(work, f"doc{index}.out")
        self.digests = None   # outputs of the first attempt
        self.report = None    # its printed fit report
        self.loops_found = 0
        self.loops_kept = 0
        self.loop_max_devs = []


class Attempt:
    def __init__(self):
        self.ok = False
        self.trace_s = 0.0
        self.fit_s = 0.0
        self.n_points = 0
        self.ref_s = 0.0  # reference time around the attempt, if measured

    @property
    def seconds(self) -> float:
        return self.trace_s + self.fit_s

    @property
    def refs(self) -> float:
        """The attempt's time in units of the reference work."""
        return self.seconds / self.ref_s


class Runner:
    """Vectorizes documents in this process, as ``beziertrace`` would."""

    def __init__(self, cli, log_counter):
        self.cli = cli
        self.log = log_counter
        self.check_s = 0.0

    def _main(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def vectorize(self, doc: Document, threads: int | None = None,
                  rec=None) -> Attempt:
        """trace (for bitmaps) then fit; checks the outputs on the first
        attempt and compares every later attempt's bytes with the first."""
        at = Attempt()
        span = rec.span if rec is not None else (
            lambda name: contextlib.nullcontext())
        fit = ["fit", doc.contours, "-o", doc.base, "--json"]
        if threads is not None:
            fit += ["--threads", str(threads)]
        self.log.dropped = 0
        try:
            if doc.kind == "pbm":
                t0 = time.perf_counter()
                with span("cli.trace"):
                    code, _ = self._main(["trace", doc.input, "-o", doc.contours])
                at.trace_s = time.perf_counter() - t0
                if code != 0:
                    print(f"doc{doc.index}: trace exited {code}", file=sys.stderr)
                    return at
            t0 = time.perf_counter()
            with span("cli.fit"):
                code, text = self._main(fit)
            at.fit_s = time.perf_counter() - t0
            if code != 0:
                print(f"doc{doc.index}: fit exited {code}", file=sys.stderr)
                return at
            report = json.loads(text.splitlines()[-1])
            del report["wall_time"]  # measured, so it differs every attempt
            at.ok = self._verify(doc, report)
            at.n_points = report["n_points"]
        except Exception:  # a crash fails this document, not the run
            logging.getLogger(__name__).exception("doc%d failed", doc.index)
        return at

    def _verify(self, doc: Document, report: dict) -> bool:
        from checks import check_document

        digests = (_digest(doc.contours), _digest(doc.base + ".json"),
                   _digest(doc.base + ".svg"), self.log.dropped)
        if doc.digests is not None:
            if digests != doc.digests or report != doc.report:
                print(f"doc{doc.index}: output differs from its first attempt",
                      file=sys.stderr)
                return False
            return True
        t0 = time.perf_counter()
        checked = check_document(doc.contours, doc.base + ".json", report)
        self.check_s += time.perf_counter() - t0
        for problem in checked.problems:
            print(f"doc{doc.index}: {problem}", file=sys.stderr)
        if checked.problems:
            return False
        doc.digests = digests
        doc.report = report
        doc.loops_kept = checked.loops
        doc.loops_found = checked.loops + self.log.dropped
        doc.loop_max_devs = checked.loop_max_devs
        return True


def _result(attempts, metrics: dict) -> dict:
    failed = sum(not a.ok for a in attempts)
    return {"correct": failed == 0, "attempted": len(attempts),
            "failed": failed, "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(runner: Runner, docs, seconds: float) -> dict:
    """End-to-end metrics: every document of the pool at least once, then
    round robin until the measured time reaches seconds."""
    setup_s = measure_setup()
    attempts = []
    start = time.perf_counter()
    ref_before = reference_s()
    while (len(attempts) < len(docs)
           or time.perf_counter() - start - runner.check_s < seconds):
        gc.collect()
        at = runner.vectorize(docs[len(attempts) % len(docs)])
        ref_after = reference_s()
        at.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        attempts.append(at)
    ok = [a for a in attempts if a.ok]
    checked = [d for d in docs if d.report]
    found = sum(d.loops_found for d in checked)
    points = sum(d.report["n_points"] for d in checked)
    segments = sum(d.report["n_segments"] for d in checked)
    error_sum = sum(d.report["avg_error"] * d.report["n_points"]
                    for d in checked)
    devs = [dev for d in checked for dev in d.loop_max_devs]

    metrics = {
        "doc_ref_p50": _metric(statistics.median(a.refs for a in ok)
                               if ok else 0.0, "ref"),
        "points_per_ref": _metric(sum(a.n_points for a in ok)
                                  / sum(a.refs for a in ok)
                                  if ok else 0.0, "1/ref"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_doc_frac": _metric(len(ok) / len(attempts), "ratio"),
        "kept_loop_frac": _metric(
            sum(d.loops_kept for d in checked) / found if found else 0.0,
            "ratio"),
        "loop_max_dev_px": _metric(statistics.fmean(devs) if devs else 0.0,
                                   "px"),
        "avg_error_px": _metric(error_sum / points if points else 0.0, "px"),
        "compression_ratio": _metric(points / segments if segments else 0.0,
                                     "pts/seg"),
    }
    if ok:  # wall-clock figures, for reading only: they drift with the host
        print(json.dumps({"wall": {
            "doc_s_p50": statistics.median(a.seconds for a in ok),
            "points_per_s": sum(a.n_points for a in ok)
                            / sum(a.seconds for a in ok),
            "ref_s_p50": statistics.median(a.ref_s for a in ok)}}))
    return _result(attempts, metrics)


def run_traced(runner: Runner, docs, seconds: float, helpers,
               spans_path: str) -> dict:
    """Per-layer metrics.  For each document, an untraced default-threads
    attempt, an untraced one-thread attempt, and a traced one-thread
    attempt; the traced attempt uses one thread so that a span's time is
    not shared with a thread holding the interpreter lock."""
    import micro
    from spans import Recorder, installed
    from beziertrace.render_io import read_spline

    primitives = micro.run_all(helpers)
    rec = Recorder()
    attempts = []
    plain_fit = one_fit = one_total = traced_total = 0.0
    traced = 0
    skipped = dropped = 0
    start = time.perf_counter()
    while traced < 1 or time.perf_counter() - start - runner.check_s < seconds:
        doc = docs[traced % len(docs)]
        gc.collect()
        a = runner.vectorize(doc)
        gc.collect()
        b = runner.vectorize(doc, threads=1)
        gc.collect()
        rec.doc = traced
        runner.log.skipped_short = 0
        with installed(rec):
            c = runner.vectorize(doc, threads=1, rec=rec)
        skipped += runner.log.skipped_short
        dropped += runner.log.dropped
        with rec.span("render_io.json_read"):
            read_spline(doc.base + ".json")
        rec.counts["reported_points"] += c.n_points
        rec.counts["json_bytes"] += os.path.getsize(doc.base + ".json")
        attempts += [a, b, c]
        plain_fit += a.fit_s
        one_fit += b.fit_s
        one_total += b.seconds
        traced_total += c.seconds
        traced += 1
    rec.dump(spans_path)

    st = rec.self_times()
    n = rec.counts
    per_doc = 1.0 / traced
    mpx = n["pixels"] / 1e6

    def secs(*names):
        return sum(st[name] for name in names) * per_doc

    def per_mpx(name):
        return st[name] / mpx if mpx else 0.0

    def per_point(seconds_total, points):
        return seconds_total * 1e6 / points if points else 0.0

    metrics = {
        "contour.load_s": (secs("contour.load"), "s"),
        "contour.load_s_per_mpx": (per_mpx("contour.load"), "s/Mpx"),
        "contour.trace_s": (secs("contour.trace"), "s"),
        "contour.trace_s_per_mpx": (per_mpx("contour.trace"), "s/Mpx"),
        "contour.write_s": (secs("contour.write"), "s"),
        "contour.read_s": (secs("contour.read"), "s"),
        "contour.loops": (n["loops"] * per_doc, "count"),
        "contour.loops_dropped": (dropped * per_doc, "count"),
        "cli.loops_skipped_short": (skipped * per_doc, "count"),
        "cli.self_s": (secs("cli.trace", "cli.fit"), "s"),
        "cli.thread_speedup": (one_fit / plain_fit if plain_fit else 0.0,
                               "ratio"),
        "corner_detect.s": (secs("corner_detect.detect"), "s"),
        "corner_detect.us_per_point": (
            per_point(st["corner_detect.detect"], n["outline_points"]),
            "us/point"),
        "corner_detect.corners": (n["corners"] * per_doc, "count"),
        "corner_detect.synthetic_break_loops": (
            n["synthetic_break_loops"] * per_doc, "count"),
        "segment_fit.s": (secs("segment_fit.fit_segment",
                               "segment_fit.build_spread"), "s"),
        "segment_fit.calls": (n["fit_calls"] * per_doc, "count"),
        "segment_fit.candidates": (n["candidates"] * per_doc, "count"),
        "segment_fit.chord_fallbacks": (n["chord_fallbacks"] * per_doc,
                                        "count"),
        "segment_fit.solve_candidate_ns": (primitives["solve_candidate_ns"],
                                           "ns"),
        "bezier_core.blend_ns": (primitives["blend_ns"], "ns"),
        "subdivision.s": (secs("subdivision.fit_outline",
                               "subdivision.split_point"), "s"),
        "subdivision.split_distance_s": (secs("subdivision.split_distance"),
                                         "s"),
        "subdivision.splits": (n["splits"] * per_doc, "count"),
        "subdivision.depth_capped": (n["depth_capped"] * per_doc, "count"),
        "subdivision.useful_ratio": (
            n["segments"] / n["fit_calls"] if n["fit_calls"] else 0.0,
            "ratio"),
        "metrics.s": (secs("metrics.fit_report"), "s"),
        "metrics.us_per_point": (
            per_point(st["metrics.fit_report"], n["reported_points"]),
            "us/point"),
        "metrics.curve_distances_us_per_point": (
            primitives["curve_distances_us_per_point"], "us/point"),
        "render_io.svg_s": (secs("render_io.svg"), "s"),
        "render_io.json_write_s": (secs("render_io.json_write"), "s"),
        "render_io.json_read_s": (secs("render_io.json_read"), "s"),
        "render_io.bytes": ((n["svg_bytes"] + n["json_bytes"]) * per_doc,
                            "bytes"),
        "trace.overhead_frac": (traced_total / one_total - 1.0
                                if one_total else 0.0, "ratio"),
    }
    _print_layers(st, traced_total, rec)
    return _result(attempts, {k: _metric(v, u) for k, (v, u) in metrics.items()})


def _print_layers(st, traced_total: float, rec) -> None:
    """Self time per span name as a share of the traced documents' time,
    then the fit time of every loop against its length."""
    print(f"{'span':32}{'self s':>10}{'share':>8}")
    for name, seconds in sorted(st.items(), key=lambda kv: -kv[1]):
        print(f"{name:32}{seconds:10.4f}{seconds / traced_total:8.1%}")
    print(f"{'loop points':>12}{'fit_outline s':>15}{'us/point':>10}")
    for span, points in sorted(rec.outlines, key=lambda item: item[1]):
        if span.doc == 0:
            seconds = span.end - span.start
            print(f"{points:12d}{seconds:15.4f}{seconds * 1e6 / points:10.1f}")


def main(argv=None) -> int:
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join(SRC, "beziertrace", "cli.py"), HELPERS):
        if not os.path.isfile(need):
            print(f"error: {need} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    from beziertrace import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    from spans import LogCounter

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    counter = LogCounter()
    logging.getLogger("beziertrace").addHandler(counter)
    try:
        helpers = _load_helpers()
        paths = generate(workload, random.Random(args.seed), helpers, work)
        docs = [Document(i, p, workload.kind, work)
                for i, p in enumerate(paths)]
        runner = Runner(cli, counter)
        if args.trace:
            result = run_traced(runner, docs, args.seconds, helpers,
                                os.path.join(WORK, f"spans-{tag}.json"))
        else:
            result = run_plain(runner, docs, args.seconds)
        info = {
            "workload": workload.name, "why": workload.why,
            "seed": args.seed, "trace": args.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "contour_sha256": [d.digests[0] if d.digests else None
                               for d in docs],
            "spline_sha256": [d.digests[1] if d.digests else None
                              for d in docs],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
