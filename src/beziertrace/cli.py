"""Command-line pipeline: trace, corners, fit, metrics.

Exit codes: 0 success, 1 usage or system error, 2 malformed input file,
3 numeric failure (degenerate or inconsistent geometry).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import statistics
import sys
import time
from dataclasses import asdict

# load_image is no longer called here, but perfbench/spans.py wraps this
# module's binding of it
from .contour import (ContourDocument, load_image, read_bitmap,
                      read_contour, trace_boundaries, write_contour)
from .corner_detect import CornerParams, detect_corners
from .errors import BezierTraceError, ConsistencyError, DomainError, FormatError
from .metrics import FitReport, fit_report, report_from_errors, spline_errors
from .render_io import (DEBUG_LAYERS, SplineDocument, read_spline, to_svg,
                        write_spline)
from .segment_fit import FitConfig
from .subdivision import fit_outline

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # malformed input files
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_corner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--support-length", type=int, default=14, metavar="N",
                   help="chord span in contour points for corner detection "
                        "(default: 14)")
    p.add_argument("--corner-threshold", type=float, default=2.6, metavar="D",
                   help="minimum chord distance in pixels for a corner "
                        "candidate (default: 2.6)")
    p.add_argument("--suppress-range", type=int, default=None, metavar="R",
                   help="non-maximum suppression half-window in points "
                        "(default: the support length)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--removal-rate", type=float, default=0.05, metavar="F",
                   help="fraction of candidate control points dropped per "
                        "pruning pass (default: 0.05)")
    p.add_argument("--removal-iters", type=int, default=2, metavar="N",
                   help="number of pruning passes (default: 2)")
    p.add_argument("--spread-threshold", type=float, default=10.0, metavar="PX",
                   help="candidate spread radius above which a segment is "
                        "subdivided (default: 10)")
    p.add_argument("--min-segment-points", type=int, default=8, metavar="N",
                   help="shortest run fitted from candidates; shorter runs "
                        "get the straight chord fit (default: 8)")
    p.add_argument("--max-error", type=float, default=None, metavar="PX",
                   help="optional max point deviation; exceeding it also "
                        "triggers subdivision (default: off)")


# One tree per process, built on the first call rather than at import:
# parsing leaves it unchanged, so every call of main shares it.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="beziertrace",
                     description="Vectorize closed raster outlines into "
                                 "cubic Bezier splines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace",
                       help="trace a 1-bit portable bitmap into contour loops")
    p.add_argument("image", help="input bitmap (plain P1 or raw P4)")
    p.add_argument("-o", "--output", required=True, metavar="FILE",
                   help="contour JSON to write")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("corners",
                       help="list detected corner points per loop")
    p.add_argument("contours", help="contour JSON from 'trace'")
    _add_corner_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("fit",
                       help="fit cubic Bezier splines to traced contours")
    p.add_argument("contours", help="contour JSON from 'trace'")
    p.add_argument("-o", "--output", required=True, metavar="BASE",
                   help="output base path; writes BASE.svg and/or BASE.json")
    _add_corner_flags(p)
    _add_fit_flags(p)
    p.add_argument("--format", choices=("svg", "json", "both"), default="both",
                   help="which outputs to write (default: both)")
    p.add_argument("--debug-layers", default="", metavar="LIST",
                   help="comma-separated SVG debug layers: "
                        f"{','.join(DEBUG_LAYERS)} or 'all'")
    p.add_argument("--threads", type=_positive_int, default=None, metavar="N",
                   help="processes over loops, this one included, for "
                        "fitting and measuring (default: the CPUs this "
                        "process may run on)")
    p.add_argument("--repeat", type=_positive_int, default=1, metavar="N",
                   help="timing repeats; the reported time is the median "
                        "(default: 1)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a table")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("metrics",
                       help="recompute fit metrics for an existing spline")
    p.add_argument("contours", help="contour JSON from 'trace'")
    p.add_argument("spline", help="spline JSON from 'fit'")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a table")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="warning: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        # bad parameter values, unwritable output paths and dead workers
        # exit 1; the readers turn their own OSError into FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BezierTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


# -------------------------------- subcommands --------------------------------


def _refuse_overwrite(source: str, outputs, what: str, pick: str) -> None:
    """DomainError when one of the output paths names the input file, also
    through a symbolic or a hard link."""
    for out in outputs:
        try:
            same = os.path.samefile(out, source)
        except OSError:     # one of them does not exist (yet)
            same = os.path.realpath(out) == os.path.realpath(source)
        if same:
            raise DomainError(f"output {out} would overwrite the input {what}; "
                              f"pick another {pick}")


def cmd_trace(args) -> int:
    _refuse_overwrite(args.image, [args.output], "image", "output path")
    img = read_bitmap(args.image)  # a raw raster stays packed: no page
    contours = trace_boundaries(img)
    write_contour(args.output, ContourDocument(img.width, img.height, contours))
    counts = ", ".join(str(c.n) for c in contours) or "none"
    print(f"traced {len(contours)} loop(s) (points: {counts})")
    return 0


def _corner_params(args) -> CornerParams:
    return CornerParams(support_length=args.support_length,
                        corner_threshold=args.corner_threshold,
                        suppress_range=args.suppress_range)


def _fit_config(args) -> FitConfig:
    return FitConfig(removal_rate=args.removal_rate,
                     removal_iters=args.removal_iters,
                     spread_threshold=args.spread_threshold,
                     min_segment_points=args.min_segment_points,
                     max_error=args.max_error)


def _long_enough(contours, params):
    """(index, contour) of every loop long enough to carry a support chord;
    each shorter loop is skipped with a warning."""
    kept = []
    for i, contour in enumerate(contours):
        if contour.n <= 2 * params.support_length:
            log.warning("loop %d skipped: %d points is too short for "
                        "support length %d", i, contour.n, params.support_length)
        else:
            kept.append((i, contour))
    return kept


def cmd_corners(args) -> int:
    doc = read_contour(args.contours)
    params = _corner_params(args)
    loops = [(i, contour, detect_corners(contour, params))
             for i, contour in _long_enough(doc.contours, params)]
    if args.json:
        payload = {"loops": [
            {"loop": i,
             "n": contour.n,
             "corners": [{"index": idx,
                          "point": [contour.points[idx].x, contour.points[idx].y],
                          "strength": strength}
                         for idx, strength in zip(corners.indices,
                                                  corners.strengths)]}
            for i, contour, corners in loops]}
        print(json.dumps(payload, sort_keys=True))
    else:
        for i, contour, corners in loops:
            print(f"loop {i}: {len(corners)} corner(s)")
            for idx, strength in zip(corners.indices, corners.strengths):
                p = contour.points[idx]
                print(f"  index {idx} at ({p.x:.0f}, {p.y:.0f}), "
                      f"strength {strength:.3f}")
    return 0


def _parse_debug_layers(value: str):
    if not value:
        return ()
    if value == "all":
        return DEBUG_LAYERS
    layers = tuple(part.strip() for part in value.split(",") if part.strip())
    unknown = set(layers).difference(DEBUG_LAYERS)
    if unknown:
        raise DomainError(f"unknown debug layers: {sorted(unknown)}")
    return layers


def _fit_share(fittable, share, params, cfg):
    """(index, (spline, errors)) per loop, or (index, exception) to end."""
    rows = []
    for i in sorted(share):
        try:
            spline, _ = fit_outline(fittable[i], params, cfg)
            rows.append((i, (spline, spline_errors(fittable[i], spline))))
        except Exception as exc:
            return rows + [(i, exc)]
    return rows


def _fit_all(fittable, params, cfg, workers):
    """(contour, spline, errors) for every loop of fittable, in input order.

    Loops are sorted longest first by point count, ties to the lower
    index, and dealt round robin to min(workers, loops) shares: loop k of
    that order goes to share k mod n.  This is not Graham's LPT rule, which
    would give each next loop to the least-loaded share; point counts are
    all it knows of a loop's cost.  This process fits share 0; a forked
    child per other share (no thread runs, so no lock is held across the
    fork) pipes back one pickle and ends in os._exit on every path.
    Shares run in index order to their first failure and a dead child
    fails at its first loop, so the error raised is the first in input
    order.  A loop read by read_contour builds its Point2 list when it is
    first fitted (Contour), so each process builds only its own share's."""
    n = min(workers, len(fittable)) if hasattr(os, "fork") else 1
    order = sorted(range(len(fittable)), key=lambda i: -fittable[i].n)
    children, ends = [], []
    try:
        for share in (order[k::n] for k in range(1, n)):
            import pickle  # only a fork needs it
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump(_fit_share(fittable, share, params, cfg), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((min(share), pid, open(read, "rb")))
        rows = _fit_share(fittable, order[::n], params, cfg)
    finally:  # every child is reaped before any result is unpickled
        for first, pid, pipe in children:
            with pipe:
                ends.append((first, pid, pipe.read(), os.waitpid(pid, 0)[1]))
    for first, pid, data, status in ends:
        code = os.waitstatus_to_exitcode(status)
        error = ChildProcessError(f"worker {pid} exited with status {code}")
        rows += [(first, error)] if code else pickle.loads(data)
    rows.sort(key=lambda row: row[0])
    for _, row in rows:
        if isinstance(row, Exception):
            raise row
    return [(fittable[i], *row) for i, row in rows]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _print_report(report: FitReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(asdict(report), sort_keys=True))
        return
    headers = ("No. of segs.", "Compression ratio", "Max dev.", "Avg. error",
               "Computation time (s)")
    wall = "-" if report.wall_time is None else f"{report.wall_time:.2f}"
    values = (str(report.n_segments), f"{report.compression_ratio:.2f}",
              f"{report.max_dev:.2f}", f"{report.avg_error:.2f}", wall)
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join(v.rjust(w) for v, w in zip(values, widths)))


def cmd_fit(args) -> int:
    _refuse_overwrite(args.contours,
                      [args.output + ".svg", args.output + ".json"],
                      "contour file", "base path")
    doc = read_contour(args.contours)
    params = _corner_params(args)
    cfg = _fit_config(args)
    layers = _parse_debug_layers(args.debug_layers)
    workers = args.threads if args.threads else _available_cpus()
    fittable = [contour for _, contour in _long_enough(doc.contours, params)]
    if not fittable:
        raise ConsistencyError("no loop could be fitted")
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        loops = _fit_all(fittable, params, cfg, workers)
        report = report_from_errors(loops)
        times.append(time.perf_counter() - t0)
    report.wall_time = statistics.median(times)

    config_echo = {**asdict(params), **asdict(cfg), "variance": "population"}
    spline_doc = SplineDocument(doc.width, doc.height,
                                [spline for _, spline, _ in loops],
                                report, config_echo)
    if args.format in ("svg", "both"):
        svg = to_svg(spline_doc, layers, [c for c, _, _ in loops])
        with open(args.output + ".svg", "w", encoding="ascii") as fh:
            fh.write(svg)
    if args.format in ("json", "both"):
        write_spline(args.output + ".json", spline_doc)
    _print_report(report, args.json)
    return 0


def cmd_metrics(args) -> int:
    cdoc = read_contour(args.contours)
    sdoc = read_spline(args.spline)
    contours = list(cdoc.contours)
    # loops too short for the echoed support length were skipped at fit time
    support = sdoc.config.get("support_length")
    if isinstance(support, int) and support > 0:
        contours = [c for c in contours if c.n > 2 * support]
    if len(contours) != len(sdoc.splines):
        raise ConsistencyError(
            f"spline document has {len(sdoc.splines)} loop(s) but the "
            f"contour document has {len(contours)} fittable loop(s)")
    if not contours:
        raise ConsistencyError("no loop could be fitted")
    t0 = time.perf_counter()
    report = fit_report(list(zip(contours, sdoc.splines)))
    report.wall_time = time.perf_counter() - t0
    _print_report(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
