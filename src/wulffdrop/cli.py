"""Command-line front door.

Subcommands: solve, wulff, symmetrize, repair, check, sweep.  All file
outputs are written atomically (temp file + rename) and are byte-identical
for identical inputs (and, for check, seed), except for the wall-time field
of run reports.

Exit codes: 0 success, 1 failed property suites, 2 validation error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import checks, competitor, odesolve, reduced, sets
from .errors import (
    InvalidInput,
    InvalidTension,
    NoBracket,
    NonConvergence,
    StalledInversion,
    WulffDropError,
)
from .tension import SurfaceTension, tension_from_config, tension_to_config
from .wulff import build_wulff_body

# Raised by a solver on validated inputs: exit 3, not a validation error.
SOLVER_FAILURES = (NonConvergence, NoBracket, StalledInversion)


# ---------------------------------------------------------------------------
# Atomic, deterministic emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-wulffdrop-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def profile_to_csv(profile: reduced.Profile) -> str:
    rows = np.column_stack([profile.knots, profile.r]).ravel().tolist()
    return "t,r\n" + "%.17g,%.17g\n" * len(profile.knots) % tuple(rows)


def write_profile_csv(path: str, profile: reduced.Profile) -> None:
    _atomic_write(path, profile_to_csv(profile))


def read_profile_csv(path: str, body, omega=None) -> reduced.Profile:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.isfinite(rows).all():
        raise ValueError("knots and radii must be finite")
    return reduced.Profile(knots=rows[:, 0], r=rows[:, 1], body=body, omega=omega)


def _svg(origin_y: int, scale: float, points: str, extra: str = "") -> str:
    """The 800x600 frame: user units drawn from (400, origin_y) at ``scale``,
    y up, as one black polyline through ``points`` and an optional extra
    element."""
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
        'viewBox="0 0 800 600">\n'
        f'  <g transform="translate(400 {origin_y}) scale({scale:.12g} {-scale:.12g})">\n'
        f'    <polyline fill="none" stroke="black" '
        f'stroke-width="{2.0 / scale:.12g}" points="{points}"/>\n'
        + (f"    {extra}\n" if extra else "")
        + "  </g>\n</svg>\n"
    )


def profile_svg(profile: reduced.Profile) -> str:
    """Fixed 800x600 viewport; the polyline holds user-unit coordinates
    (t vertical, |x'| horizontal, even reflection across the axis)."""
    t_max = profile.t_max
    r_max = max(float(np.max(profile.r)), 1e-12)
    # Up the left branch from (-r_0, 0) through the apex, down the right
    # branch to (r_0, 0); the apex point is shared when the top is closed.
    left = [(-r, t) for r, t in zip(profile.r, profile.knots)]
    right = [(r, t) for r, t in zip(profile.r[::-1], profile.knots[::-1])]
    pts = left + right[1:] if profile.r[-1] == 0 else left + right
    points = " ".join(f"{x:.17g},{y:.17g}" for x, y in pts)
    sx = 760.0 / (2.2 * r_max)
    sy = 560.0 / (1.1 * max(t_max, 1e-12))
    scale = min(sx, sy)
    return _svg(580, scale, points,
                f'<line x1="{-1.05 * r_max:.12g}" y1="0" x2="{1.05 * r_max:.12g}" '
                f'y2="0" stroke="gray" stroke-width="{1.0 / scale:.12g}"/>')


def profile_report(profile: reduced.Profile) -> dict:
    """Energy, volume and residuals of a profile, under its own omega."""
    breakdown = reduced.reduced_energy(profile)
    lam = reduced.lambda_estimate(profile)
    res = reduced.el_residual(profile, lam)
    return {
        "Fs": breakdown.Fs,
        "Fc": breakdown.Fc,
        "Fp": breakdown.Fp,
        "total": breakdown.total,
        "volume": reduced.reduced_volume(profile),
        "young_residual": reduced.young_residual(profile),
        "max_el_residual": res.max_abs(0.9 * profile.t_max),
        "lambda_est": lam,
    }


def _load_tension(path: str) -> SurfaceTension:
    with open(path) as handle:
        try:
            cfg = json.load(handle)
        except ValueError as exc:
            raise InvalidTension(f"{path} is not a JSON document: {exc}") from exc
    return tension_from_config(cfg)


def _parse_input(path: str, what: str, parse):
    """parse(path); a malformed file raises InvalidInput naming it."""
    try:
        return parse(path)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise InvalidInput(f"{path} is not a valid {what}: {exc}") from exc


def _out_path(args, name: str) -> str:
    if getattr(args, "out_dir", None):
        return os.path.join(args.out_dir, name)
    return name


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    t_start = time.perf_counter()
    tension = _load_tension(args.tension)
    reduced.check_omega(tension, args.omega)
    # The direct solve's options are checked before any solve, whatever the
    # method; shoot and minimize_direct check the mass first thing.
    reduced.check_direct_options(args.grid_size, args.max_iter)
    body = build_wulff_body(tension, args.m_normals)

    report = {
        "inputs": {
            "tension": tension_to_config(tension),
            "omega": args.omega,
            "mass": args.mass,
            "method": args.method,
            "grid_size": args.grid_size,
        },
    }
    profiles = {}
    try:
        if args.method in ("shoot", "both"):
            sol = odesolve.shoot(body, args.omega, args.mass)
            profiles["shoot"] = sol.profile
            report["shoot"] = {
                "v0": sol.v0,
                "s_star": sol.s_star,
                "R_max": float(sol.profile.r[0]),
                "T_max": sol.profile.t_max,
                "lambda": sol.lam,
                "volume_bridge_constant": sol.diagnostics["bridge_constant"],
                "energy": profile_report(sol.profile),
                "young_residual": sol.diagnostics["young_residual"],
            }
        if args.method in ("direct", "both"):
            prof = reduced.minimize_direct(body, args.omega, args.mass,
                                           grid_size=args.grid_size,
                                           max_iter=args.max_iter)
            profiles["direct"] = prof
            report["direct"] = {
                "iterations": prof.meta["iterations"],
                "converged": prof.meta["converged"],
                "T_max": prof.t_max,
                "energy": profile_report(prof),
            }
    except SOLVER_FAILURES as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 3

    if args.method == "both":
        linf, hausdorff = checks.cross_difference(profiles["shoot"],
                                                  profiles["direct"])
        report["cross_difference_linf"] = linf
        report["cross_difference_hausdorff"] = hausdorff

    primary = profiles.get("shoot", profiles.get("direct"))
    out_csv = args.out or _out_path(args, "profile.csv")
    write_profile_csv(out_csv, primary)
    if args.method == "both":
        stem, ext = os.path.splitext(out_csv)
        write_profile_csv(stem + "-direct" + ext, profiles["direct"])
    if args.plot:
        _atomic_write(args.plot, profile_svg(primary))
    report["wall_time_s"] = time.perf_counter() - t_start
    write_json(args.report or _out_path(args, "report.json"), report)
    return 0


def cmd_wulff(args) -> int:
    tension = _load_tension(args.tension)
    body = build_wulff_body(tension, args.m_normals)
    out = {
        "d": body.d,
        "vertices": np.asarray(body.geometry).tolist(),
        "edges": [
            {"length": float(l), "normal": n.tolist(),
             "h": float(h), "support": float(s)}
            for l, n, h, s in zip(body.edge_lengths, body.edge_normals,
                                  body.edge_h, body.edge_supports)
        ],
        "area": body.area,
        "aniso_perimeter": body.aniso_perimeter,
        "lambda": body.lam,
        "m_normals": body.m_normals,
    }
    write_json(args.out or _out_path(args, "body.json"), out)
    if args.svg:
        # A polygon is drawn closed, an interval as a segment on the x axis.
        verts = np.asarray(body.geometry)
        path = (np.vstack([verts, verts[:1]]) if body.d == 2
                else np.column_stack([verts, np.zeros(2)]))
        r_max = float(np.max(np.abs(verts))) or 1.0
        scale = 280.0 / r_max
        points = " ".join(f"{x:.12g},{y:.12g}" for x, y in path)
        _atomic_write(args.svg, _svg(300, scale, points))
    return 0


def cmd_symmetrize(args) -> int:
    tension = _load_tension(args.tension)
    reduced.check_omega(tension, args.omega)

    def parse_set(path):
        with open(path) as handle:
            return sets.sliced_set_from_dict(json.load(handle), tension)

    sliced = _parse_input(args.set, "sliced-set document", parse_set)
    body = build_wulff_body(tension, args.m_normals)
    before = sets.energy(sliced, tension, args.omega)
    prof = sets.symmetrize(sliced, body, omega=args.omega)
    after = reduced.reduced_energy(prof)
    write_profile_csv(args.out or _out_path(args, "symmetrized.csv"), prof)
    write_json(args.report or _out_path(args, "symmetrize.json"), {
        "original": {"Fs": before.Fs, "Fc": before.Fc, "Fp": before.Fp,
                     "total": before.total},
        "symmetrized": {"Fs": after.Fs, "Fc": after.Fc, "Fp": after.Fp,
                        "total": after.total},
        "energy_drop": before.total - after.total,
        "volume": sets.volume(sliced),
    })
    return 0


def cmd_repair(args) -> int:
    competitor.check_epsilon(args.epsilon)
    if args.max_repairs < 0:
        raise InvalidInput(f"--max-repairs must be at least 0, got {args.max_repairs}")
    tension = _load_tension(args.tension)
    body = build_wulff_body(tension, args.m_normals)
    profile = _parse_input(
        args.profile, "profile CSV",
        lambda path: read_profile_csv(path, body, omega=args.omega))
    log = []
    current = profile
    for _ in range(args.max_repairs):
        try:
            repaired = competitor.repair_profile(current, epsilon=args.epsilon)
        except competitor.CompetitorFailure as exc:
            log.append({"failed": type(exc).__name__})
            break
        if repaired is None:
            break  # concave, or every violation left is at rounding level
        params = repaired.meta["params"]
        log.append({
            "t1": params.t1, "t2": params.t2,
            "sigma": params.sigma, "tau": params.tau, "side": params.side,
            "energy_drop": repaired.meta["energy_drop"],
        })
        current = repaired
    write_profile_csv(args.out or _out_path(args, "repaired.csv"), current)
    write_json(args.report or _out_path(args, "repair.json"), {
        "repairs": log,
        "final_energy": reduced.reduced_energy(current).total,
        "concavity_defect": current.concavity_defect(),
    })
    return 0


def cmd_check(args) -> int:
    names = [args.suite] if args.suite else None
    results = checks.run_suites(names=names, seed=args.seed, trials=args.trials)
    for name, res in results.items():
        print(f"{'PASS' if res['passed'] else 'FAIL'}  {name}")
    if args.report:
        write_json(args.report, {"seed": args.seed, "suites": results})
    failed = [name for name, res in results.items() if not res["passed"]]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    tension = _load_tension(args.tension)
    try:
        omegas = [float(x) for x in args.omegas.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"--omegas must be comma-separated numbers: {exc}") from exc
    # Every omega, before the first shoot writes its profile.
    for omega in omegas:
        odesolve.check_graph_omega(tension, omega)
    body = build_wulff_body(tension, args.m_normals)
    rows = []
    for k, omega in enumerate(omegas):
        try:
            sol = odesolve.shoot(body, omega, args.mass)
        except SOLVER_FAILURES as exc:
            print(f"error: solver failed at omega={omega}: {exc}", file=sys.stderr)
            return 3
        name = _out_path(args, f"sweep-{k:03d}.csv")
        write_profile_csv(name, sol.profile)
        rows.append({
            "omega": omega, "v0": sol.v0, "T_max": sol.profile.t_max,
            "R_max": float(sol.profile.r[0]), "lambda": sol.lam,
            "energy": reduced.reduced_energy(sol.profile).total,
            "profile": os.path.basename(name),
        })
    write_json(_out_path(args, "sweep.json"),
               {"mass": args.mass, "points": rows})
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wulffdrop",
        description="Equilibrium shapes of anisotropic sessile drops under gravity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, omega=True):
        p.add_argument("--tension", required=True, help="tension JSON document")
        if omega:
            p.add_argument("--omega", type=float, required=True,
                           help="contact energy coefficient")
        p.add_argument("--m-normals", type=int, default=1024)
        p.add_argument("--out-dir", default=None)

    p = sub.add_parser("solve", help="solve for the minimizing profile")
    common(p)
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--method", choices=("shoot", "direct", "both"),
                   default="shoot")
    p.add_argument("--grid-size", type=int, default=161)
    p.add_argument("--max-iter", type=int,
                   default=reduced.MAX_NEWTON_STEPS,
                   help="direct-minimizer Newton step budget")
    p.add_argument("--out", default=None, help="profile CSV path")
    p.add_argument("--plot", default=None, help="SVG output path")
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("wulff", help="emit the slice Wulff body")
    common(p, omega=False)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_wulff)

    p = sub.add_parser("symmetrize", help="rearrange a sliced set")
    common(p)
    p.add_argument("--set", required=True, help="SlicedSet JSON document")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_symmetrize)

    p = sub.add_parser("repair", help="competitor repair of a profile CSV")
    common(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--max-repairs", type=int, default=32)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", choices=sorted(checks.SUITES), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sweep", help="shoot across a list of omegas")
    common(p, omega=False)
    p.add_argument("--omegas", required=True, help="comma-separated values")
    p.add_argument("--mass", type=float, required=True)
    p.set_defaults(fn=cmd_sweep)
    return parser


# Built once per process: every main() call parses with the same parser.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (WulffDropError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
