"""Markdown tables of this tree's CLI outputs, start-up, shoots and repairs
beside a base tree's: ``python tools/against_base.py HEAD_TREE [BASE_TREE]``.

A difference is reported, never failed.  A section that raises prints its
error as a row of its table (the traceback goes to stderr), and the exit
status is 1 once all have printed.
"""

import inspect
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import traceback

import numpy as np

# The fields that hold wall-clock seconds, the only ones two reports of
# the same inputs may differ in.
TIMED = ("wall_time_s", "seconds", "case_seconds")


def untimed(obj):
    """obj with the TIMED keys of every dict in it left out."""
    if isinstance(obj, dict):
        return {k: untimed(v) for k, v in obj.items() if k not in TIMED}
    if isinstance(obj, list):
        return [untimed(v) for v in obj]
    return obj


def cell(text):
    """text as one Markdown table cell."""
    return text.strip().replace("|", "\\|").replace("\n", "<br>") or "(none)"


def run(tree, args, **kwargs):
    """``python *args`` in a fresh interpreter that imports wulffdrop from tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


def probe(tree, fn):
    """fn() on tree, read back as JSON.  Only fn's source runs there, after
    ``import json``, so fn imports everything else it uses itself."""
    code = f"import json\n{inspect.getsource(fn)}\nprint(json.dumps({fn.__name__}()))\n"
    proc = run(tree, ["-c", code], capture_output=True)
    if proc.returncode:
        raise RuntimeError(f"{fn.__name__} exited {proc.returncode}: "
                           + (proc.stderr.strip().splitlines() or [""])[-1])
    return json.loads(proc.stdout)


# (N, phi, omega = -0.5 phi(0, 1)) of each family.  The N = 2 family runs
# the slice-dimension-1 paths: interval bodies, sets and profiles.
FAMILIES = {"euclid": (3, {"family": "euclid"}, -0.5),
            "pnorm3": (3, {"family": "pnorm", "p": 3.0}, -0.5),
            "weighted2": (3, {"family": "weighted", "c": 2.0}, -0.5 * 2.0 ** 0.5),
            "euclid-N2": (2, {"family": "euclid"}, -0.5)}
# Steep l_p slice norms under euclid phi at N = 3, with their normal
# counts: long runs of the l_16 body's polar points lie within rounding of
# one line, where the hull's order of drops decides its vertices, and
# |x|^p of the l_3000 norm's unit normals underflows.
STEEP = {"lp16": (16.0, 4096), "lp3000": (3000.0, 1024)}
# The sliced-set document symmetrized under an N-dimensional tension.
SET_DOCS = {3: "sliced-set.json", 2: "interval-set.json"}
OUTPUTS = ["check.json", "check.stdout", "check-seed1.json", "check-seed1.stdout"] + [
    fam + ext for fam in FAMILIES
    for ext in (".json", ".csv", "-direct.csv", ".svg", "-body.json", "-body.svg",
                "-repair.json", "-repaired.csv", "-symmetrize.json", "-symmetrized.csv")] + [
    name + ext for name in STEEP for ext in ("-body.json", "-body.svg")] + [
    f"euclid-{name}{ext}" for name in ("tail", "gap") for ext in ("-repair.json", "-repaired.csv")]


def json_gap(a, b, path=""):
    """(gap, path): the largest |b - a| / |a| over the numeric leaves of two
    JSON values and the key path of that leaf (``repairs[3].sigma``), or
    None where their keys, lengths or other leaves differ.  A leaf that
    moves off 0 or to or from NaN counts as inf."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        gaps = [json_gap(a[k], b[k], f"{path}.{k}" if path else str(k)) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        gaps = [json_gap(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, path
        return (abs(b - a) / abs(a) if a and not math.isnan(b - a) else math.inf), path
    else:
        return (0.0, path) if a == b else None
    return None if None in gaps else max(gaps, key=lambda g: g[0], default=(0.0, path))


def verdict(tmp, name):
    """tmp/head/name against tmp/base/name; a profile CSV by max |dr| / max r,
    a JSON document by the largest relative difference of its numbers."""
    paths = [os.path.join(tmp, side, name) for side in ("base", "head")]
    if not all(os.path.exists(p) for p in paths):
        return "missing"
    if name.endswith(".json"):
        a, b = (untimed(json.load(open(p))) for p in paths)
    else:
        a, b = (open(p, "rb").read() for p in paths)
    if a == b:
        return "identical"
    if name.endswith(".json"):
        gap = json_gap(a, b)
        return "**differs**" if gap is None else cell(
            f"**differs** (max |Δx| / |x| over numbers = {gap[0]:.2e} at {gap[1]})")
    if not name.endswith(".csv"):
        return "**differs**"
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, 1] for p in paths)
    if a.shape != b.shape:
        return f"**differs** ({a.size} vs {b.size} knots)"
    return cell(f"**differs** (max |Δr| / max r = "
                f"{np.max(np.abs(b - a)) / np.max(np.abs(a)):.2e})")


# A performance change may move shoot outputs within tolerance: the CLI
# outputs of both trees are compared, and invalid inputs by exit and stderr.
def cli_outputs(trees):
    if len(trees) < 2:
        yield "CLI outputs: no base commit to compare with"
        return
    yield "| output (JSON apart from timing fields) | against the base commit |"
    yield "|---|---|"
    with tempfile.TemporaryDirectory() as tmp:
        # The 41-knot quarter circle as repair reads it: with r[12:20] *= 0.75
        # (the dent), cut off above t = 0.8 (the tail, concave on its
        # support) and with r[12:15] = 0 (the gap, two stacked pieces).
        t = np.linspace(0.0, 1.0, 41)
        quarter = np.sqrt(np.maximum(1.0 - t**2, 0.0))
        profiles = {name: quarter.copy() for name in ("dent", "tail", "gap")}
        profiles["dent"][12:20] *= 0.75
        profiles["tail"][t > 0.8] = 0.0
        profiles["gap"][12:15] = 0.0
        for name, r in profiles.items():
            with open(os.path.join(tmp, name + ".csv"), "w") as handle:
                handle.write("t,r\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, r)))
        # A sliced set on a 12-edge elliptic base over 9 knots, with drifting
        # centers and an empty slice at the fifth knot; for N = 2, the same
        # paths over the base interval (lo, hi).
        theta = 2.0 * np.pi * np.arange(12) / 12.0 + 0.1
        paths = {"knots": [0.2 * k + 0.01 * k * k for k in range(9)],
                 "scales": [1.0, 0.95, 0.9, 0.8, 0.0, 0.6, 0.45, 0.3, 0.1]}
        for n, base, centers in (
                (3, np.stack([1.3 * np.cos(theta), 0.8 * np.sin(theta)], axis=1).tolist(),
                 [[0.05 * k, 0.01 * k * k - 0.03 * k] for k in range(9)]),
                (2, [-0.7, 1.1], [[0.05 * k - 0.004 * k * k] for k in range(9)])):
            with open(os.path.join(tmp, SET_DOCS[n]), "w") as handle:
                json.dump({"base_vertices": base, **paths, "centers": centers}, handle)
        # Each command runs in <tmp>/<side>, with its stdout in <tag>.stdout;
        # the inputs are in <tmp>.
        commands = {"check": "check --seed 0 --report check.json",
                    "check-seed1": "check --seed 1 --report check-seed1.json"}
        invalid = {}
        for fam, (n, phi, omega) in FAMILIES.items():
            with open(os.path.join(tmp, fam + ".json"), "w") as handle:
                json.dump({"N": n, "phi": phi, "h": {"family": "lp", "p": 2.0}}, handle)
            tension = f"--tension ../{fam}.json"
            commands[fam] = (f"solve {tension} --omega={omega!r} --mass 1 --method both "
                             f"--out {fam}.csv --report {fam}.json --plot {fam}.svg")
            commands[fam + "-wulff"] = f"wulff {tension} --out {fam}-body.json --svg {fam}-body.svg"
            commands[fam + "-repair"] = (f"repair {tension} --omega=-0.5 --profile ../dent.csv "
                                         f"--out {fam}-repaired.csv --report {fam}-repair.json")
            commands[fam + "-symmetrize"] = (
                f"symmetrize {tension} --omega={omega!r} --set ../{SET_DOCS[n]} "
                f"--out {fam}-symmetrized.csv --report {fam}-symmetrize.json")
            # Invalid inputs: omega = 1.5 phi(0, 1) outside the admissible
            # interval, omega > 0 outside the graph regime of the shoot half of
            # --method both, a NaN mass, a sweep whose second omega is outside
            # the graph regime, a normal count above the size bound, too
            # large for numpy even to size, so no tree allocates it, and a
            # direct step budget of 0 given to a shoot, checked before it.
            invalid[fam + "-omega-outside"] = f"solve {tension} --omega={-3.0 * omega!r} --mass 1"
            invalid[fam + "-both-positive-omega"] = (f"solve {tension} --omega=0.1 --mass 1 "
                                                     "--method both")
            invalid[fam + "-direct-nan-mass"] = (f"solve {tension} --omega={omega!r} "
                                                 "--mass nan --method direct")
            invalid[fam + "-sweep-second-omega"] = (f"sweep {tension} --omegas={omega!r},0.2 "
                                                    "--mass 1")
            invalid[fam + "-huge-m-normals"] = f"wulff {tension} --m-normals 10000000000000000000"
            invalid[fam + "-shoot-max-iter-0"] = (f"solve {tension} --omega={omega!r} "
                                                  "--mass 1 --method shoot --max-iter 0")
        for name in ("tail", "gap"):
            commands[f"euclid-{name}-repair"] = (
                f"repair --tension ../euclid.json --omega=-0.5 --profile ../{name}.csv "
                f"--out euclid-{name}-repaired.csv --report euclid-{name}-repair.json")
        for name, (p, m) in STEEP.items():
            with open(os.path.join(tmp, name + ".json"), "w") as handle:
                json.dump({"N": 3, "phi": {"family": "euclid"},
                           "h": {"family": "lp", "p": p}}, handle)
            commands[name + "-wulff"] = (f"wulff --tension ../{name}.json --m-normals {m} "
                                         f"--out {name}-body.json --svg {name}-body.svg")
        for tag, argv in invalid.items():
            commands[tag] = f"{argv} --out-dir {tag}-out"
        codes = {}
        for side, tree in trees:
            out = os.path.join(tmp, side)
            os.makedirs(out)
            for tag, argv in commands.items():
                with open(os.path.join(out, tag + ".stdout"), "w") as log:
                    proc = run(tree, ["-m", "wulffdrop.cli", *argv.split()], cwd=out,
                               stdout=log, stderr=subprocess.PIPE)
                codes[side, tag] = proc.returncode, proc.stderr
        for name in OUTPUTS:
            yield f"| {name} | {verdict(tmp, name)} |"
        yield ""
        yield ("| invalid input | exit (base, head) | stderr on base | stderr on head "
               "| output written (base, head) |")
        yield "|---|---|---|---|---|"
        for tag in invalid:
            (code_b, err_b), (code_h, err_h) = codes["base", tag], codes["head", tag]
            wrote = ", ".join(str(os.path.exists(os.path.join(tmp, side, tag + "-out")))
                              for side in ("base", "head"))
            yield f"| {tag} | {code_b}, {code_h} | {cell(err_b)} | {cell(err_h)} | {wrote} |"


def import_cli():
    """The wall time of ``import wulffdrop.cli`` and the public scipy
    subpackages it leaves in sys.modules."""
    import sys
    import time
    t0 = time.perf_counter()
    import wulffdrop.cli  # noqa: F401
    t = time.perf_counter() - t0
    subs = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
    return [t, sorted(s for s in subs if not s.startswith("_"))]


def shoot_set():
    """Four families x omega in {-0.9, -0.5, -0.05} phi(0,1) x five masses;
    the pnorm3 cells whose target lies beyond the v0 scan raise NoBracket
    and are counted apart.  Each converged shoot is timed alone, and its
    v0_history is returned with float.hex.  The ODE solves and interpolant
    rows built over the whole set are counted, calls of
    ``odesolve.integrate_v`` and ``odesolve._interpolant``: exact numbers,
    where the seconds are not."""
    import time
    import wulffdrop as wd
    from wulffdrop import odesolve
    counts = {"integrate_v": 0, "_interpolant": 0}

    def counted(name):
        fn = getattr(odesolve, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        setattr(odesolve, name, call)

    for name in counts:
        counted(name)
    probes, worst, no_bracket, seconds, histories = [], 0.0, 0, 0.0, []
    for family, params in (("euclid", {}), ("pnorm", {"p": 3.0}),
                           ("pnorm", {"p": 1.5}), ("weighted", {"c": 2.0})):
        tension = wd.make_tension(family, **params)
        body = wd.build_wulff_body(tension, 1024)
        for frac in (-0.9, -0.5, -0.05):
            for m in (1e-3, 0.1, 1.0, 10.0, 100.0):
                start = time.perf_counter()
                try:
                    sol = wd.shoot(body, frac * tension.f_eN, m)
                except wd.errors.NoBracket:
                    no_bracket += 1
                    continue
                seconds += time.perf_counter() - start
                history = sol.diagnostics["v0_history"]
                probes.append(len(history))
                histories.append([[float(x).hex() for x in entry] for entry in history])
                worst = max(worst, abs(sol.diagnostics["achieved_volume"] / m - 1.0))
    return [probes, worst, no_bracket, seconds, histories,
            counts["integrate_v"], counts["_interpolant"]]


def repair_set():
    """The dents of suite_convexity, 100 for each of three seeds and three
    families: the 41-knot quarter circle with r[i0:i0 + width] *= depth,
    drawn as the suite draws them, at omega = -0.5 phi(0, 1).  Returns
    their count, the SHA-256 of the repaired geometry (every repaired
    profile's knots and radii, or the failure's name), the energy drops
    and the repairs' [sigma, tau] (None where no repair was made) and their
    seconds.  The drops and parameters are kept apart from the digest, so
    that a number moved by rounding does not hide whether the geometry
    moved, and a move of the geometry is sized by how far sigma and tau
    moved."""
    import hashlib
    import time
    import numpy as np
    import wulffdrop as wd
    digest, count, drops, caps = hashlib.sha256(), 0, [], []
    start = time.perf_counter()
    t = np.linspace(0.0, 1.0, 41)
    quarter = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    for family, params in (("euclid", {}), ("pnorm", {"p": 3.0}), ("weighted", {"c": 2.0})):
        tension = wd.make_tension(family, **params)
        body = wd.build_wulff_body(tension, 1024)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                i0 = int(rng.integers(4, 28))
                width = int(rng.integers(3, 10))
                depth = float(rng.uniform(0.5, 0.92))
                r = quarter.copy()
                r[i0:i0 + width] *= depth
                prof = wd.Profile(knots=t, r=r, body=body, omega=-0.5 * tension.f_eN)
                count += 1
                try:
                    out = wd.repair_profile(prof, epsilon=2.0)
                except wd.competitor.CompetitorFailure as exc:
                    digest.update(type(exc).__name__.encode())
                    drops.append(None)
                    caps.append(None)
                    continue
                if out is None:
                    digest.update(b"none")
                    drops.append(None)
                    caps.append(None)
                    continue
                digest.update(out.knots.tobytes())
                digest.update(out.r.tobytes())
                drops.append(float(out.meta["energy_drop"]))
                caps.append([out.meta["params"].sigma, out.meta["params"].tau])
    return [count, digest.hexdigest(), drops, caps, time.perf_counter() - start]


def start_up(trees):
    yield "| commit | scipy subpackages after `import wulffdrop.cli` | median of 5 imports (s) |"
    yield "|---|---|---:|"
    for side, tree in trees:
        runs = [probe(tree, import_cli) for _ in range(5)]
        yield (f"| {side} | {', '.join(runs[0][1])} | "
               f"{statistics.median(t for t, _ in runs):.3f} |")


def shoot_convergence(trees):
    yield ("| commit | shoots | mean probes | max probes | worst \\|vol/m - 1\\| | NoBracket "
           "| ODE solves | interpolant rows | seconds of the shoots "
           "| every v0_history bit for bit as on base |")
    yield "|---|---:|---:|---:|---:|---:|---:|---:|---:|---|"
    base_histories = None
    for side, tree in trees:
        probes, worst, no_bracket, seconds, histories, solves, rows = probe(tree, shoot_set)
        if side == "base":
            base_histories, same = histories, ""
        elif base_histories is None:
            same = "no base commit"
        elif histories == base_histories:
            same = "identical"
        else:
            moved = sum(a != b for a, b in zip(histories, base_histories))
            moved += abs(len(histories) - len(base_histories))
            same = f"**differs** ({moved} of {len(histories)} shoots)"
        yield (f"| {side} | {len(probes)} | {sum(probes) / len(probes):.2f} | "
               f"{max(probes)} | {worst:.1e} | {no_bracket} | {solves} | {rows} | "
               f"{seconds:.3f} | {same} |")


def drops_against(drops, base_drops):
    """How the energy drops moved against the base tree's, repair by repair."""
    if base_drops is None:
        return "no base commit"
    if [d is None for d in drops] != [d is None for d in base_drops]:
        return "**differs** (other repairs made)"
    moved = [abs(d - b) for d, b in zip(drops, base_drops) if d is not None and d != b]
    if not moved:
        return "identical"
    return f"**differs** ({len(moved)} of {len(drops)} moved, max \\|Δ\\| = {max(moved):.1e})"


def params_against(params, base_params):
    """The largest |Δsigma| and |Δtau| against the base tree's, over the
    repairs both trees made."""
    if base_params is None:
        return "no base commit"
    moves = [(abs(p[0] - b[0]), abs(p[1] - b[1]))
             for p, b in zip(params, base_params) if p is not None and b is not None]
    if not moves:
        return "no common repairs"
    return "{:.1e}, {:.1e}".format(*np.max(moves, axis=0))


def competitor_repairs(trees):
    yield ("| commit | repairs | SHA-256 of the repaired geometry "
           "| max \\|Δσ\\|, \\|Δτ\\| against base | energy drops against base | seconds |")
    yield "|---|---:|---|---|---|---:|"
    base_drops = base_params = None
    for side, tree in trees:
        count, digest, drops, params, seconds = probe(tree, repair_set)
        if side == "base":
            base_drops, base_params, moved, sized = drops, params, "", ""
        else:
            moved = drops_against(drops, base_drops)
            sized = params_against(params, base_params)
        yield f"| {side} | {count} | `{digest}` | {sized} | {moved} | {seconds:.3f} |"


def main(head, base=None):
    trees = ([("base", base)] if base else []) + [("head", head)]
    failed = False
    for section in (cli_outputs, start_up, shoot_convergence, competitor_repairs):
        try:
            for line in section(trees):
                print(line, flush=True)
        except Exception as exc:
            failed = True
            traceback.print_exc()
            print(f"| **error** | {cell(f'{type(exc).__name__}: {exc}')} |", flush=True)
        print(flush=True)
    return int(failed)


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit("usage: python tools/against_base.py HEAD_TREE [BASE_TREE]")
    sys.exit(main(*sys.argv[1:]))
