import json
import logging
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import fields

import pytest

import beziertrace
from beziertrace import cli
from beziertrace.cli import main
from beziertrace.contour import ContourDocument, trace_boundaries, write_contour
from beziertrace.bezier_core import Point2
from beziertrace.contour import Contour, RasterImage
from beziertrace.corner_detect import CornerParams
from beziertrace.errors import ConsistencyError, DomainError
from beziertrace.metrics import FitReport
from beziertrace.render_io import SplineDocument, write_spline
from beziertrace.segment_fit import FitConfig

from helpers import (circle_image, filled_rect_image, pbm_plain_bytes,
                     pbm_raw_bytes, rasterize_polygon, rect_with_hole_image,
                     star_polygon)


@pytest.fixture()
def rect_pbm(tmp_path):
    p = tmp_path / "rect.pbm"
    p.write_bytes(pbm_raw_bytes(filled_rect_image(48, 38, 4, 4, 43, 33)))
    return p


@pytest.fixture()
def circle_pbm(tmp_path):
    p = tmp_path / "circle.pbm"
    p.write_bytes(pbm_raw_bytes(circle_image(50)))
    return p


@pytest.fixture(scope="module")
def stars_contours(tmp_path_factory):
    """Traced page of six star_polygon stars in a 3x2 grid of 170 px cells."""
    rng = random.Random(6)
    width, height = 3 * 170, 2 * 170
    bits = bytearray(width * height)
    for k in range(6):
        verts = star_polygon(rng, cx=85.0 + 170 * (k % 3),
                             cy=85.0 + 170 * (k // 3))
        star = rasterize_polygon(verts, width, height).bits
        bits = bytearray(a | b for a, b in zip(bits, star))
    contours = trace_boundaries(RasterImage(width, height, bits))
    path = tmp_path_factory.mktemp("stars") / "stars.json"
    write_contour(path, ContourDocument(width, height, contours))
    return path


def _trace(tmp_path, pbm, name="contours.json"):
    out = tmp_path / name
    assert main(["trace", str(pbm), "-o", str(out)]) == 0
    return out


def test_trace_rectangle(tmp_path, rect_pbm, capsys):
    out = _trace(tmp_path, rect_pbm)
    text = capsys.readouterr().out
    assert "traced 1 loop(s)" in text
    assert "136" in text
    doc = json.loads(out.read_text())
    assert len(doc["contours"]) == 1


def test_trace_empty_image(tmp_path, capsys):
    p = tmp_path / "empty.pbm"
    p.write_bytes(b"P1\n4 4\n" + b"0 0 0 0\n" * 4)
    out = tmp_path / "c.json"
    assert main(["trace", str(p), "-o", str(out)]) == 0
    assert "traced 0 loop(s)" in capsys.readouterr().out
    assert json.loads(out.read_text())["contours"] == []


def test_trace_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.pbm"),
                 "-o", str(tmp_path / "c.json")]) == 2
    assert "nope.pbm" in capsys.readouterr().err


def test_corners_rectangle(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    assert main(["corners", str(contours), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["loops"][0]["corners"]) == 4


def test_corners_circle_none(tmp_path, circle_pbm, capsys):
    contours = _trace(tmp_path, circle_pbm)
    capsys.readouterr()
    assert main(["corners", str(contours)]) == 0
    assert "0 corner(s)" in capsys.readouterr().out


def test_corners_huge_threshold(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    assert main(["corners", str(contours), "--corner-threshold", "1e9",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loops"][0]["corners"] == []


def test_fit_rectangle(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "out"
    capsys.readouterr()
    assert main(["fit", str(contours), "-o", str(base), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_segments"] == 4
    assert report["max_dev"] < 0.5
    assert report["compression_ratio"] == pytest.approx(report["n_points"] / 4)
    assert (tmp_path / "out.svg").exists()
    assert (tmp_path / "out.json").exists()


def test_fit_format_selection(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "svg_only"
    assert main(["fit", str(contours), "-o", str(base), "--format", "svg"]) == 0
    assert (tmp_path / "svg_only.svg").exists()
    assert not (tmp_path / "svg_only.json").exists()


def test_fit_report_table(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    assert main(["fit", str(contours), "-o", str(tmp_path / "t")]) == 0
    out = capsys.readouterr().out
    assert "No. of segs." in out
    assert "Compression ratio" in out
    assert "Computation time (s)" in out


def test_metrics_matches_fit_report(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "out"
    capsys.readouterr()
    assert main(["fit", str(contours), "-o", str(base), "--json"]) == 0
    fit_report = json.loads(capsys.readouterr().out)
    assert main(["metrics", str(contours), str(base) + ".json", "--json"]) == 0
    metrics_report = json.loads(capsys.readouterr().out)
    for key in ("n_points", "n_segments", "max_dev", "avg_error",
                "compression_ratio"):
        assert metrics_report[key] == fit_report[key]
    report_keys = {f.name for f in fields(FitReport)}
    assert set(fit_report) == set(metrics_report) == report_keys
    written = json.loads((tmp_path / "out.json").read_text())["report"]
    assert set(written) == report_keys


def test_metrics_mismatched_contour_is_just_bad(tmp_path, capsys):
    img = filled_rect_image(48, 38, 4, 4, 43, 33)
    loop = trace_boundaries(img)[0]
    contours_a = tmp_path / "a.json"
    write_contour(contours_a, ContourDocument(48, 38, [loop]))
    base = tmp_path / "out"
    assert main(["fit", str(contours_a), "-o", str(base), "--json"]) == 0
    capsys.readouterr()
    # same loop, shifted: same n, spans still tile, geometry displaced
    shifted = Contour([Point2(p.x + 3.0, p.y + 1.0) for p in loop.points])
    contours_b = tmp_path / "b.json"
    write_contour(contours_b, ContourDocument(48, 38, [shifted]))
    assert main(["metrics", str(contours_b), str(base) + ".json",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_dev"] > 1.0  # large errors, no crash


def test_fit_deterministic_across_threads(tmp_path, capsys):
    p = tmp_path / "holes.pbm"
    p.write_bytes(pbm_plain_bytes(rect_with_hole_image()))
    contours = _trace(tmp_path, p, "holes.json")
    outs = []
    for threads, name in ((1, "t1"), (8, "t8")):
        base = tmp_path / name
        assert main(["fit", str(contours), "-o", str(base),
                     "--threads", str(threads),
                     "--support-length", "4",
                     "--min-segment-points", "4"]) == 0
        outs.append(((base.parent / (name + ".svg")).read_bytes(),
                     (base.parent / (name + ".json")).read_bytes()))
    assert outs[0] == outs[1]


def test_fit_identical_across_worker_counts(stars_contours, tmp_path, capsys):
    outs = []
    for workers in ("1", "2", "3", "8"):
        base = tmp_path / f"w{workers}"
        assert main(["fit", str(stars_contours), "-o", str(base),
                     "--threads", workers, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["wall_time"]  # measured, so it differs every run
        outs.append(((tmp_path / f"w{workers}.svg").read_bytes(),
                     (tmp_path / f"w{workers}.json").read_bytes(), report))
    assert all(out == outs[0] for out in outs[1:])


def test_fit_without_fork_fits_every_loop_here(stars_contours, tmp_path,
                                               monkeypatch, capsys):
    assert main(["fit", str(stars_contours), "-o", str(tmp_path / "a"),
                 "--threads", "1"]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["fit", str(stars_contours), "-o", str(tmp_path / "b"),
                 "--threads", "2"]) == 0
    for suffix in (".svg", ".json"):
        assert ((tmp_path / ("a" + suffix)).read_bytes()
                == (tmp_path / ("b" + suffix)).read_bytes())


def _squares(tmp_path, sides):
    """Contour file with one square loop per side length, in that order."""
    loops = []
    for k, side in enumerate(sides):
        x0, last = 40 * k, side - 1
        ring = ([(x0 + t, 0) for t in range(last)]
                + [(x0 + last, t) for t in range(last)]
                + [(x0 + last - t, last) for t in range(last)]
                + [(x0, last - t) for t in range(last)])
        loops.append(Contour([Point2(float(x), float(y)) for x, y in ring]))
    path = tmp_path / "squares.json"
    write_contour(path, ContourDocument(40 * len(sides), max(sides), loops))
    return path


def _python(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(beziertrace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300)


def test_worker_error_exit_code(stars_contours, tmp_path, monkeypatch,
                                capsys):
    # forked workers inherit the patched binding; this process fits a share
    # too, so only the loops fitted in another process fail
    parent, fit_outline = os.getpid(), cli.fit_outline

    def failing(contour, params, cfg):
        if os.getpid() != parent:
            raise ConsistencyError(f"failed in process {os.getpid()}")
        return fit_outline(contour, params, cfg)

    monkeypatch.setattr(cli, "fit_outline", failing)
    assert main(["fit", str(stars_contours), "-o", str(tmp_path / "e"),
                 "--threads", "1"]) == 0
    capsys.readouterr()
    assert main(["fit", str(stars_contours), "-o", str(tmp_path / "e2"),
                 "--threads", "2"]) == 3
    error = capsys.readouterr().err
    # the error was raised in a worker process, not in this one
    assert error.startswith("error: failed in process ")
    assert error != f"error: failed in process {parent}\n"


def test_fit_error_is_first_loop_at_any_worker_count(tmp_path, monkeypatch,
                                                     capsys):
    # loop 0 is the shortest, so it is dealt last; every loop fails, and the
    # error is loop 0's at any worker count, as with one worker
    contours = _squares(tmp_path, (12, 20, 16, 24, 14))

    def failing(contour, params, cfg):
        raise ConsistencyError(f"loop at {tuple(contour.points[0])}")

    monkeypatch.setattr(cli, "fit_outline", failing)
    for workers in ("1", "2", "3", "8"):
        assert main(["fit", str(contours), "-o", str(tmp_path / "e"),
                     "--threads", workers]) == 3
        assert capsys.readouterr().err == "error: loop at (0.0, 0.0)\n"


def test_fit_reports_a_worker_that_dies(tmp_path):
    # the child ends before it sends its rows; fit returns, writes nothing
    # and names the child's exit status
    contours, base = _squares(tmp_path, (12, 20, 16)), tmp_path / "out"
    proc = _python(
        "import os, sys\n"
        "from beziertrace import cli\n"
        "parent, fit_outline = os.getpid(), cli.fit_outline\n"
        "def dying(contour, params, cfg):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(1)\n"
        "    return fit_outline(contour, params, cfg)\n"
        "cli.fit_outline = dying\n"
        f"sys.exit(cli.main(['fit', {str(contours)!r}, '-o', {str(base)!r}, "
        "'--threads', '2']))\n")
    assert proc.returncode != 0
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert re.fullmatch(r"error: worker \d+ exited with status 1", errors[0])
    assert not (tmp_path / "out.svg").exists()
    assert not (tmp_path / "out.json").exists()


@pytest.fixture()
def forks(monkeypatch):
    """Pids of the children fit forks; each fork must find no other thread
    running, and the fork numbered by fail_at (from 1) fails instead."""
    fork, pids, state = os.fork, [], {"fail_at": None}

    def recording_fork():
        assert threading.active_count() == 1
        if len(pids) + 1 == state["fail_at"]:
            raise BlockingIOError(11, "fork refused by the test")
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids, state


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fit_forks_a_child_per_other_share(tmp_path, forks, capsys):
    # three workers over five loops: this process fits one share and forks
    # two children, with no other thread running, and reaps both
    pids, _ = forks
    contours = _squares(tmp_path, (12, 20, 16, 24, 14))
    assert main(["fit", str(contours), "-o", str(tmp_path / "out"),
                 "--threads", "3"]) == 0
    assert len(pids) == 2
    assert all(_reaped(pid) for pid in pids)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="open descriptors are listed from /proc")
def test_fit_closes_every_pipe_when_a_fork_fails(tmp_path, forks, capsys):
    # the second fork fails: its pipe is closed, the first child is reaped
    # and the failure is an error exit, with nothing written
    pids, state = forks
    contours = _squares(tmp_path, (12, 20, 16, 24, 14))
    state["fail_at"] = 2
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["fit", str(contours), "-o", str(tmp_path / "out"),
                 "--threads", "3"]) == 1
    assert (capsys.readouterr().err
            == "error: [Errno 11] fork refused by the test\n")
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(pids) == 1 and _reaped(pids[0])
    assert not (tmp_path / "out.svg").exists()


def test_fit_reaps_every_child_before_unpickling(tmp_path, forks,
                                                 monkeypatch):
    # the children inherit a pickle.dump that sends bytes pickle cannot
    # read; both children are reaped before the first result fails to load
    import pickle

    pids, _ = forks
    contours = _squares(tmp_path, (12, 20, 16, 24, 14))
    monkeypatch.setattr(pickle, "dump", lambda rows, pipe: pipe.write(b"?"))
    with pytest.raises(pickle.UnpicklingError):
        main(["fit", str(contours), "-o", str(tmp_path / "out"),
              "--threads", "3"])
    assert len(pids) == 2
    assert all(_reaped(pid) for pid in pids)


def test_cli_import_leaves_pool_modules_unloaded(tmp_path):
    # no pool module is imported at start-up or by a fit over two workers,
    # and pickle only when a worker is forked
    contours = _squares(tmp_path, (12, 20, 16))
    proc = _python(
        "import sys, beziertrace.cli\n"
        "def loaded(names):\n"
        "    return sorted(m for m in names if m in sys.modules)\n"
        "print(loaded(('multiprocessing', 'concurrent.futures', 'pickle')))\n"
        f"code = beziertrace.cli.main(['fit', {str(contours)!r}, '-o', "
        f"{str(tmp_path / 'out')!r}, '--threads', '2'])\n"
        "print(code, loaded(('multiprocessing', 'concurrent.futures')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_default_workers_are_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert cli._available_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._available_cpus() == 8


def test_exit_code_usage_error():
    assert main(["fit", "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1


def test_main_builds_its_parser_once_and_repeats_every_byte(tmp_path,
                                                            rect_pbm, capsys):
    # the tree is built on the first call, not at import, then kept
    proc = _python("import beziertrace.cli as cli\n"
                   "print(cli._build_parser.cache_info().currsize)\n")
    assert proc.stdout.split() == ["0"], proc.stderr
    out = tmp_path / "c.json"
    calls = (["fit", "--help"], ["fit", "--bogus-flag"],
             ["trace", str(rect_pbm), "-o", str(out)])
    runs = []
    for _ in range(2):
        for argv in calls:
            code = main(argv)
            seen = capsys.readouterr()
            runs.append((code, seen.out, seen.err))
        runs.append(out.read_bytes())
    assert runs[:4] == runs[4:]
    assert [run[0] for run in runs[:3]] == [0, 1, 0]
    assert cli._build_parser() is cli._build_parser()


def test_exit_code_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert main(["corners", str(bad)]) == 2


def test_metrics_malformed_spline_is_format_error(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    bad = tmp_path / "s.json"
    bad.write_text('{"format_version": 1, "width": 48, "height": 38, '
                   '"contours": 5}')
    assert main(["metrics", str(contours), str(bad)]) == 2
    assert "contours" in capsys.readouterr().err


def _fitted_with_first_span(tmp_path, rect_pbm, shift_span):
    """Contour and spline paths of the fitted rectangle, the spline's first
    span replaced by shift_span(span, n)."""
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "out"
    assert main(["fit", str(contours), "-o", str(base), "--format", "json"]) == 0
    n = len(json.loads(contours.read_text())["contours"][0]["points"])
    spline = tmp_path / "out.json"
    doc = json.loads(spline.read_text())
    seg = doc["contours"][0]["segments"][0]
    seg["span"] = shift_span(seg["span"], n)
    spline.write_text(json.dumps(doc))
    return contours, spline


@pytest.mark.parametrize("shift_span", [
    lambda span, n: [False, True],
    lambda span, n: [span[0] - n, span[1]],
], ids=["bool", "negative"])
def test_metrics_span_not_an_index_is_format_error(tmp_path, rect_pbm, capsys,
                                                   shift_span):
    contours, spline = _fitted_with_first_span(tmp_path, rect_pbm, shift_span)
    capsys.readouterr()
    assert main(["metrics", str(contours), str(spline)]) == 2
    assert "span" in capsys.readouterr().err


def test_metrics_span_past_loop_is_numeric_error(tmp_path, rect_pbm, capsys):
    # the same point modulo n, but no point of the loop has this index
    contours, spline = _fitted_with_first_span(
        tmp_path, rect_pbm, lambda span, n: [span[0] + 10 * n, span[1]])
    capsys.readouterr()
    assert main(["metrics", str(contours), str(spline)]) == 3
    assert "outside a loop" in capsys.readouterr().err


def test_metrics_huge_control_point_is_domain_error(tmp_path, rect_pbm,
                                                    capsys):
    # squared offsets from a control point at 1e200 pass the float range;
    # the distance layer refuses it as a DomainError instead of crashing
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "out"
    assert main(["fit", str(contours), "-o", str(base), "--format", "json"]) == 0
    spline = tmp_path / "out.json"
    doc = json.loads(spline.read_text())
    doc["contours"][0]["segments"][0]["controls"][1] = [1e200, 5.0]
    spline.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["metrics", str(contours), str(spline)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1e+200" in err and "Traceback" not in err


def test_exit_code_numeric_error(tmp_path, capsys):
    # a single valid loop too short to carry the default support chord
    img = filled_rect_image(8, 8, 3, 3, 4, 4)
    loop = trace_boundaries(img)[0]
    contours = tmp_path / "tiny.json"
    write_contour(contours, ContourDocument(8, 8, [loop]))
    assert main(["fit", str(contours), "-o", str(tmp_path / "o")]) == 3
    assert "no loop" in capsys.readouterr().err


def test_metrics_no_fitted_loop_is_numeric_error(tmp_path, capsys):
    # like fit: no loop long enough for the support chord, and an empty
    # spline document, is the same "no loop" failure, exit 3
    img = filled_rect_image(8, 8, 3, 3, 4, 4)
    contours = tmp_path / "tiny.json"
    write_contour(contours, ContourDocument(8, 8, trace_boundaries(img)))
    spline = tmp_path / "empty.json"
    write_spline(spline, SplineDocument(8, 8, [], None,
                                        {"support_length": 14}))
    assert main(["metrics", str(contours), str(spline)]) == 3
    assert "no loop could be fitted" in capsys.readouterr().err


def test_debug_layers_flag(tmp_path, rect_pbm):
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "dbg"
    assert main(["fit", str(contours), "-o", str(base),
                 "--debug-layers", "all"]) == 0
    svg = (tmp_path / "dbg.svg").read_text()
    for cls in ("input", "breaks", "controls", "polygons"):
        assert f'class="{cls}"' in svg
    assert main(["fit", str(contours), "-o", str(base),
                 "--debug-layers", "bogus"]) == 1


def test_bad_flag_values_are_usage_errors(tmp_path, rect_pbm):
    contours = _trace(tmp_path, rect_pbm)
    base = tmp_path / "x"
    assert main(["fit", str(contours), "-o", str(base), "--threads", "0"]) == 1
    assert main(["fit", str(contours), "-o", str(base),
                 "--removal-rate", "0.9"]) == 1
    assert main(["corners", str(contours), "--support-length", "0"]) == 1


def test_fit_refuses_to_overwrite_input(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    base = str(contours)[:-len(".json")]
    assert main(["fit", str(contours), "-o", base]) == 1
    assert "overwrite" in capsys.readouterr().err


def test_trace_refuses_to_overwrite_input(tmp_path, rect_pbm, capsys,
                                          monkeypatch):
    before = rect_pbm.read_bytes()

    def no_read(path):
        raise AssertionError("the image was read")

    monkeypatch.setattr(cli, "load_image", no_read)
    same = tmp_path / "sub" / ".." / rect_pbm.name
    link = tmp_path / "link.pbm"
    link.symlink_to(rect_pbm)
    for out in (rect_pbm, same, link):
        capsys.readouterr()
        assert main(["trace", str(rect_pbm), "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "would overwrite the input image" in err[0]
    assert rect_pbm.read_bytes() == before


def test_trace_refuses_to_overwrite_a_hard_link_to_input(tmp_path, rect_pbm,
                                                        capsys):
    before = rect_pbm.read_bytes()
    link = tmp_path / "link.pbm"
    os.link(rect_pbm, link)
    assert main(["trace", str(rect_pbm), "-o", str(link)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "would overwrite the input image" in err[0]
    assert rect_pbm.read_bytes() == before


def test_fit_refuses_to_overwrite_a_hard_link_to_input(tmp_path, rect_pbm,
                                                      capsys):
    contours = _trace(tmp_path, rect_pbm)
    before = contours.read_bytes()
    os.link(contours, tmp_path / "base.svg")
    capsys.readouterr()
    assert main(["fit", str(contours), "-o", str(tmp_path / "base"),
                 "--format", "svg"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "would overwrite the input" in err[0]
    assert contours.read_bytes() == before


def test_fit_repeat_flag(tmp_path, rect_pbm, capsys):
    contours = _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    assert main(["fit", str(contours), "-o", str(tmp_path / "r"),
                 "--repeat", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["wall_time"] > 0.0


def test_cli_import_leaves_statistics_unloaded():
    # the --repeat median is taken inline: statistics and the fractions and
    # decimal modules it pulls in would only add to every start-up
    proc = _python("import sys, beziertrace.cli\n"
                   "print([m for m in ('statistics', 'fractions', 'decimal')"
                   " if m in sys.modules])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("spans", [(0.25, 0.5), (0.75, 0.125, 0.5)])
def test_fit_repeat_reports_the_median_span(tmp_path, rect_pbm, spans):
    # with the clock scripted, --repeat reports statistics.median of the
    # timed spans, at an even and an odd count, and the fit loads no
    # statistics module to find it
    import statistics
    contours = _trace(tmp_path, rect_pbm)
    proc = _python(
        "import sys, time, beziertrace.cli\n"
        f"ticks = iter([t for s in {spans!r} for t in (10.0, 10.0 + s)])\n"
        "time.perf_counter = lambda: next(ticks)\n"
        f"code = beziertrace.cli.main(['fit', {str(contours)!r}, '-o', "
        f"{str(tmp_path / 'r')!r}, '--repeat', '{len(spans)}', "
        "'--threads', '1', '--json'])\n"
        "print(code, next(ticks, None), 'statistics' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    report, tail = proc.stdout.splitlines()
    assert tail == "0 None False"
    assert json.loads(report)["wall_time"] == statistics.median(
        [(10.0 + s) - 10.0 for s in spans])


def test_fit_repeat_warns_once_per_skipped_loop(tmp_path, caplog):
    # the 3x3 hole traces to a loop too short for the default support chord
    p = tmp_path / "holes.pbm"
    p.write_bytes(pbm_plain_bytes(rect_with_hole_image()))
    contours = _trace(tmp_path, p, "holes.json")
    outs = []
    for repeat in ("1", "3"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="beziertrace.cli"):
            assert main(["fit", str(contours), "-o", str(tmp_path / repeat),
                         "--repeat", repeat, "--threads", "1"]) == 0
        assert caplog.messages == [
            "loop 1 skipped: 12 points is too short for support length 14"]
        outs.append(((tmp_path / (repeat + ".svg")).read_bytes(),
                     (tmp_path / (repeat + ".json")).read_bytes()))
    assert outs[0] == outs[1]


def test_points_are_built_only_in_the_fit_of_each_fitted_loop(tmp_path,
                                                              monkeypatch):
    # trace and read_contour keep every loop as integer columns; fit builds
    # a loop's Point2 list once, when it fits the loop, and never for the
    # hole skipped as too short, however many repeats it times
    from beziertrace import contour
    built, points = [], contour._points
    monkeypatch.setattr(contour, "_points",
                        lambda xs, ys: built.append(len(xs)) or points(xs, ys))
    p = tmp_path / "holes.pbm"
    p.write_bytes(pbm_raw_bytes(rect_with_hole_image()))
    traced = _trace(tmp_path, p, "holes.json")
    assert built == []
    doc = contour.read_contour(traced)
    assert built == [] and [c.n for c in doc.contours] == [52, 12]
    assert main(["fit", str(traced), "-o", str(tmp_path / "fit"),
                 "--threads", "1", "--repeat", "2"]) == 0
    assert built == [52]


def test_module_entry_point(tmp_path, rect_pbm):
    out = tmp_path / "m.json"
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(beziertrace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beziertrace", "trace", str(rect_pbm),
         "-o", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "traced 1 loop(s)" in proc.stdout


def test_help_documents_defaults(capsys):
    assert main(["fit", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--support-length" in out
    assert "default: 14" in out
    assert "--spread-threshold" in out


_THRESHOLDS = [(CornerParams, "corner_threshold", "--corner-threshold"),
               (FitConfig, "spread_threshold", "--spread-threshold"),
               (FitConfig, "max_error", "--max-error")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, field, flag", _THRESHOLDS)
def test_non_finite_threshold_is_rejected(cls, field, flag, value):
    with pytest.raises(DomainError):
        cls(**{field: float(value)})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, field, flag", _THRESHOLDS)
def test_non_finite_threshold_is_usage_error(tmp_path, rect_pbm, capsys,
                                            cls, field, flag, value):
    contours = _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    base = tmp_path / "out"
    assert main(["fit", str(contours), "-o", str(base),
                 f"{flag}={value}"]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out.svg").exists()
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["trace", "fit"])
def test_unwritable_output_is_usage_error(tmp_path, rect_pbm, capsys,
                                          command):
    source = rect_pbm if command == "trace" else _trace(tmp_path, rect_pbm)
    capsys.readouterr()
    out = tmp_path / "missing" / "out"
    assert main([command, str(source), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
