"""wulffdrop benchmark: end-to-end and per-layer metrics of the CLI.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload direct-families --seed 1 --seconds 10 --trace 0

Workloads: direct-families, check-gate, or ``all`` for both in turn.  Load
shape: a closed loop, one case (one ``wulffdrop.cli.main`` invocation) at a
time, BLAS/OpenMP threads pinned to 1.  Each pass over the
workload's cases runs in a fresh worker process (bench/worker.py), because a
CLI user pays import and lazy set-up on every run.  Passes repeat until
``--seconds`` have elapsed (at least one).  Set-up is timed in every worker,
set-up-only workers add samples up to three, and ``setup_s`` is their median.  The driver
itself imports only the standard library.

``--trace 1`` adds one traced pass after the untraced ones and reports the
per-layer metrics (bench/tracing.py) and the tracing overhead instead of the
end-to-end metrics.  Every case's outputs are checked against the fixed
acceptance tolerances; failed cases count in ``failed``.

Each run writes its full record (environment, cases, metrics) to
``bench/results/``.  Compare two sets of such records with

    python3 bench/run.py --compare DIR_A DIR_B

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 2 when the checkout holds no wulffdrop sources.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # one run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# The seven end-to-end metrics, printed for every workload.  Those the
# driver compares are listed in BENCHMARK.json.
E2E_UNITS = {
    "wall_s": "s", "cpu_s": "s", "case_s_p50": "s", "case_s_tail": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, versions: dict) -> dict:
    """The run's environment; ``versions`` come from a worker's imports."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **versions,
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or (None, None) when there are too few samples."""
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n else 0
    if pct < 50:
        return None, None
    ordered = sorted(values)
    return pct, ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)]


def quartiles(values: list[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(spec_path: str, result_path: str, flags: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             result_path, *flags],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, results_dir: str) -> dict:
    docs = {f: workloads.tension_doc(f) for f in workloads.FAMILIES}
    work = os.path.join(HERE, ".work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tension_dir = os.path.join(work, "tensions")
    os.makedirs(tension_dir)
    for family, doc in docs.items():
        with open(os.path.join(tension_dir, family + ".json"), "w") as handle:
            json.dump(doc, handle)
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(results_dir,
                        f"{workload}-s{seed}-t{int(trace)}-{stamp}-p{os.getpid()}")

    deadline = time.monotonic() + DEADLINE_S
    counter = itertools.count()

    def worker(flags):
        k = next(counter)
        spec = {"workload": workload, "seed": seed, "tiny": tiny,
                "tensions": docs, "tension_dir": tension_dir,
                "pass_dir": os.path.join(work, f"pass-{k}"),
                "spans_path": base + "-spans.csv"}
        spec_path = os.path.join(work, f"spec-{k}.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        return spawn(spec_path, os.path.join(work, f"result-{k}.json"), flags, deadline)

    try:
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(worker([]))
        setups = [p["setup_s"] for p in passes]
        # setup_s is reported by untraced full-size runs only.
        while not (tiny or trace) and len(setups) < SETUP_SAMPLES:
            setups.append(worker(["--setup-only"])["setup_s"])
        traced = worker(["--trace"]) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [c for p in passes for c in p["cases"]]
    checked = records + (traced["cases"] if traced else [])
    times = [c["seconds"] for c in records]
    pct, tail_value = tail(times)
    failed_frac = sum(1 for c in records if c["failure"]) / len(records)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "case_s_p50": statistics.median(times),
        "case_s_tail": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "failed_frac": failed_frac,
        "success_frac": 1.0 - failed_frac,
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "env": environment(seed, passes[0]["versions"]),
        "passes": len(passes), "cases_per_pass": len(passes[0]["cases"]),
        "case_count": len(times), "case_s_tail_percentile": pct,
        "setup_samples": setups, "metrics": metrics,
        "attempted": len(checked),
        "failed": sum(1 for c in checked if c["failure"]),
        # Exit 3 is the solver's documented non-convergence: a failed case,
        # not a wrong answer.  Anything else that fails is a wrong answer.
        "correct": all(not c["failure"] or c["exit"] == 3 for c in checked),
        "cases": [dict(c, pass_index=i) for i, p in enumerate(passes)
                  for c in p["cases"]],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.spans"] = traced["spans"]
        result["layers"] = layers
        result["traced_cases"] = traced["cases"]
    with open(base + ".json", "w") as handle:
        json.dump(result, handle, indent=1)
    result["path"] = base + ".json"
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def print_result(res: dict, spec: dict) -> None:
    env = res["env"]
    print(f"== {res['workload']}  seed={res['seed']}  passes={res['passes']}  "
          f"cases/pass={res['cases_per_pass']}")
    print(f"   env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} threads=1 git={env['git_sha'][:12]}")
    m = res["metrics"]
    for name, unit in E2E_UNITS.items():
        if name == "case_s_tail":
            if m[name] is None:
                print(f"   {name:<14} n/a  (no percentile >= p50 has 10 cases "
                      f"beyond it; n={res['case_count']})")
            else:
                print(f"   {name:<14} {m[name]:.6g} {unit}  "
                      f"(p{res['case_s_tail_percentile']}, n={res['case_count']})")
        elif name == "case_s_p50":
            print(f"   {name:<14} {m[name]:.6g} {unit}  (n={res['case_count']})")
        else:
            print(f"   {name:<14} {m[name]:.6g} {unit}")
    for case in res["cases"] + res.get("traced_cases", []):
        if case["failure"]:
            print(f"   FAILED {case['id']}: {case['failure']}  {case['stderr'][-160:]}")
    if "layers" in res:
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        print(f"   per-layer (traced pass; tracing overhead "
              f"{res['layers']['trace.overhead_s']:.4g} s):")
        for name, value in res["layers"].items():
            print(f"     {name:<40} {value:.6g} {units.get(name, '')}")
    print(f"   record: {os.path.relpath(res['path'], ROOT)}")


def contract_line(results: list[dict], spec: dict, trace: bool) -> dict:
    names = [x["name"] for x in spec["per_layer" if trace else "end_to_end"]]
    prefix = len(results) > 1
    units = {x["name"]: x["unit"] for x in spec["per_layer"] + spec["end_to_end"]}
    metrics = {}
    for res in results:
        source = res["layers"] if trace else res["metrics"]
        for name in names:
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": source[name], "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def load_records(directory: str) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            rec = json.load(handle)
        if not rec.get("trace"):
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def compare(dir_a: str, dir_b: str, spec: dict) -> int:
    bounds = {x["name"]: x for x in spec["end_to_end"]}
    side_a, side_b = load_records(dir_a), load_records(dir_b)
    print(f"A = {dir_a}   B = {dir_b}")
    print("spread = (q3 - q1) / median over runs; unresolved when a side's "
          "spread exceeds the metric's bound")
    for workload in sorted(set(side_a) | set(side_b)):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        print(f"== {workload}: {len(runs_a)} runs in A, {len(runs_b)} runs in B")
        if not runs_a or not runs_b:
            print("   (missing on one side)")
            continue
        units = E2E_UNITS | {name: x["unit"] for name, x in bounds.items()}
        for name, unit in units.items():
            if name == "case_s_tail":
                row = []
                for runs in (runs_a, runs_b):
                    times = [c["seconds"] for r in runs for c in r["cases"]]
                    pct, value = tail(times)
                    row.append("n/a" if pct is None
                               else f"p{pct}={value:.4g} (n={len(times)})")
                print(f"   {name:<14} A {row[0]}   B {row[1]}   (pooled, no bound)")
                continue
            qa = quartiles([r["metrics"][name] for r in runs_a])
            qb = quartiles([r["metrics"][name] for r in runs_b])
            line = (f"   {name:<14} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                    f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {unit}")
            bound = bounds.get(name)
            if bound is None:
                print(line + "  (no bound)")
                continue
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if bound["better"] == "lower" else -change
            if max(spreads) > bound["bound"]:
                verdict = "UNRESOLVED"
            elif worse > bound["bound"]:
                verdict = "WORSE"
            else:
                verdict = "within bound"
            print(f"{line}  change {change:+.1%} (bound {bound['bound']:.0%}, "
                  f"spread A {spreads[0]:.1%} B {spreads[1]:.1%}) {verdict}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one cheap case per workload (smoke test)")
    parser.add_argument("--results-dir", default=os.path.join(HERE, "results"))
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wulffdrop", "__init__.py")):
        print(f"error: no wulffdrop sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not args.workload:
        parser.error("--workload or --compare is required")

    compileall.compile_dir(os.path.join(SRC, "wulffdrop"), quiet=1)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.tiny, args.results_dir)
            print_result(res, spec)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(contract_line(results, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
