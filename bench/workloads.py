"""Workload inputs (made from the seed) and the per-case acceptance checks.

Only the standard library is imported at module level, so the worker can
import this file before its set-up timer starts; numpy is imported inside
the check functions, which run after the timed pass.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("direct-families", "check-gate")

# Tension documents of the three built-in families (slice norm l_2, N = 3).
FAMILIES = {
    "euclid": {"family": "euclid"},
    "pnorm3": {"family": "pnorm", "p": 3.0},
    "weighted2": {"family": "weighted", "c": 2.0},
}

# The check suites that never call minimize_direct.
CHECK_SUITES = ("symmetrization", "jensen", "wulff-identity", "el-consistency",
                "monotonicity", "convexity-repair", "gradient", "volume-bridge")

# Fixed acceptance tolerances (README / tests/test_acceptance.py).
VOLUME_RTOL = 1e-6
CROSS_LINF = 0.01
CROSS_ENERGY = 0.003
YOUNG_SHOOT = 1e-8


def tension_doc(family: str) -> dict:
    return {"N": 3, "phi": dict(FAMILIES[family]), "h": {"family": "lp", "p": 2.0},
            "derivative_mode": "closed"}


def make_cases(workload: str, seed: int, f_eN: dict, tiny: bool = False) -> list[dict]:
    """The cases of one pass.  ``f_eN`` maps family -> phi(0, 1).

    direct-families: solve --method both at omega = -0.5 phi(0,1).  The
        direct minimizer's iteration count is chaotic in omega (see
        bench/predictions.json), so the seed only orders the cases.
    check-gate: check --suite S --seed <seed> for each suite.
    """
    rng = random.Random(seed)
    cases = []
    if workload == "direct-families":
        plan = [("pnorm3", 1.0), ("weighted2", 1.0), ("euclid", 10.0)]
        if tiny:
            plan = [("pnorm3", 1.0)]
        rng.shuffle(plan)
        for family, mass in plan:
            cases.append({"id": f"solve-{family}-m{mass:g}", "kind": "solve",
                          "family": family, "mass": mass,
                          "omega": -0.5 * f_eN[family],
                          "grid_size": 21 if tiny else None})
    elif workload == "check-gate":
        for suite in (("jensen", "gradient") if tiny else CHECK_SUITES):
            cases.append({"id": f"check-{suite}", "kind": "check",
                          "suite": suite, "seed": seed})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def case_argv(case: dict, tension_dir: str, out: str) -> list[str]:
    """The wulffdrop CLI arguments of one case, writing under ``out``."""
    if case["kind"] == "check":
        return ["check", "--suite", case["suite"], "--seed", str(case["seed"]),
                "--report", os.path.join(out, "summary.json")]
    tension = os.path.join(tension_dir, case["family"] + ".json")
    argv = ["solve", "--tension", tension, f"--omega={case['omega']!r}",
            "--mass", repr(case["mass"]), "--method", "both",
            "--out", os.path.join(out, "profile.csv"),
            "--report", os.path.join(out, "report.json")]
    if case.get("grid_size"):
        argv += ["--grid-size", str(case["grid_size"])]
    return argv


# ---------------------------------------------------------------------------
# Acceptance checks on the written outputs
# ---------------------------------------------------------------------------

def _read_profile(path: str):
    import numpy as np

    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]


def _volume(knots, r, area: float) -> float:
    """Slab-exact volume |K_h| int r^2 dt of a piecewise-linear profile (N = 3)."""
    import numpy as np

    a, b = r[:-1], r[1:]
    return float(area * np.sum(np.diff(knots) * (a * a + a * b + b * b) / 3.0))


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def check_case(case: dict, out: str, bodies: dict) -> str | None:
    """None when the outputs meet the acceptance tolerances, else why not.

    ``bodies`` maps family -> the M = 1024 Wulff body the CLI solves on.
    """
    if case["kind"] == "check":
        with open(os.path.join(out, "summary.json")) as handle:
            summary = json.load(handle)
        if not summary["suites"][case["suite"]]["passed"]:
            return f"suite {case['suite']} reported FAIL"
        return None

    import numpy as np

    mass, body = case["mass"], bodies[case["family"]]
    with open(os.path.join(out, "report.json")) as handle:
        report = json.load(handle)
    t_s, r_s = _read_profile(os.path.join(out, "profile.csv"))
    t_d, r_d = _read_profile(os.path.join(out, "profile-direct.csv"))
    for name, (t, r) in (("shoot", (t_s, r_s)), ("direct", (t_d, r_d))):
        if not _rel(_volume(t, r, body.area), mass) <= VOLUME_RTOL:
            return f"{name} volume misses {VOLUME_RTOL:g} relative"
    linf = float(np.max(np.abs(r_d - np.interp(t_d, t_s, r_s))) / np.max(r_s))
    if not linf <= CROSS_LINF:
        return f"shoot-vs-direct L-inf {linf:.3g} > {CROSS_LINF:g}"
    e_s = report["shoot"]["energy"]["total"]
    e_d = report["direct"]["energy"]["total"]
    if not _rel(e_d, e_s) <= CROSS_ENERGY:
        return f"shoot-vs-direct energy {_rel(e_d, e_s):.3g} > {CROSS_ENERGY:g}"
    if not abs(report["shoot"]["young_residual"]) < YOUNG_SHOOT:
        return "shoot Young residual above 1e-8"
    return None
