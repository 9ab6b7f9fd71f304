"""One pass of a workload in a fresh process.

Usage: python3 bench/worker.py SPEC RESULT [--setup-only] [--trace]

SPEC is a JSON file written by bench/run.py (workload, seed, tension
documents and directories); the worker writes its measurements to RESULT as
JSON.  It times its set-up (import wulffdrop, build the tensions, fill the
lazy caches), makes the cases from the seed, runs every case as one
in-process ``wulffdrop.cli.main`` call, then checks the written outputs.
The checks run after the timed pass and with tracing removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only)


def run_case(cli, argv: list[str]) -> tuple[int | None, str | None, str]:
    """(exit code, exception name, captured stderr) of one CLI invocation."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback breaks the CLI contract; record it
        return None, type(exc).__name__, err.getvalue()
    return code, None, err.getvalue()


def main(argv: list[str]) -> int:
    spec_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv
    with open(spec_path) as handle:
        spec = json.load(handle)

    t0 = time.perf_counter()
    import wulffdrop
    from wulffdrop import cli, wulff

    bodies = {}
    for family, doc in spec["tensions"].items():
        tension = wulffdrop.tension_from_config(doc)
        bodies[family] = wulffdrop.build_wulff_body(tension, 1024)
        wulff.alpha_volume_table(tension)
        wulff.alpha_spline(tension)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if setup_only:
        _write(result_path, result)
        return 0
    cases = workloads.make_cases(
        spec["workload"], spec["seed"],
        {family: body.tension.f_eN for family, body in bodies.items()},
        tiny=spec["tiny"])

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, case in enumerate(cases):
        out = os.path.join(spec["pass_dir"], f"{k:02d}-{case['id']}")
        os.makedirs(out)
        case_argv = workloads.case_argv(case, spec["tension_dir"], out)
        start = time.perf_counter()
        if tracer is not None:
            tracer.case = case["id"]
            with tracer.span("case"):
                code, exc, stderr = run_case(cli, case_argv)
        else:
            code, exc, stderr = run_case(cli, case_argv)
        records.append({"id": case["id"], "seconds": time.perf_counter() - start,
                        "exit": code, "exception": exc,
                        "stderr": stderr.strip()[-300:], "out": out})
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    for case, rec in zip(cases, records):
        if rec["exception"] is not None:
            rec["failure"] = f"exception {rec['exception']}"
        elif rec["exit"] != 0:
            rec["failure"] = f"exit code {rec['exit']}"
        else:
            try:
                rec["failure"] = workloads.check_case(case, rec.pop("out"), bodies)
            except (OSError, KeyError, ValueError) as exc:
                rec["failure"] = f"unreadable output: {type(exc).__name__}: {exc}"
        rec.pop("out", None)

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    result.update({
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "cases": records,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "wulffdrop": wulffdrop.__version__, "blas": blas},
    })
    if tracer is not None:
        from tracing import layer_metrics

        misses = {name: getattr(wulff, name).cache_info().misses
                  for name in ("alpha_volume_table", "alpha_spline")}
        result["layers"] = layer_metrics(tracer.spans, misses)
        result["spans"] = len(tracer.spans)
        with open(spec["spans_path"], "w") as handle:
            handle.write("id,name,parent,case,start,end\n")
            for i, s in enumerate(tracer.spans):
                handle.write(f"{i},{s.name},{s.parent},{s.case},{s.start!r},{s.end!r}\n")
    _write(result_path, result)
    return 0


def _write(path: str, obj) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
