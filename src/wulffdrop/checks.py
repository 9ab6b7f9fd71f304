"""Seeded property suites behind the ``check`` subcommand.

Each suite returns ``{"passed": bool, "details": {...}}`` built only from
str-keyed dicts, lists, tuples, str, int, float, bool and None, so it is
written to JSON as it is.  A suite's name is its ``SUITES`` key, and
:func:`run_suites` returns ``{name: result}``, the ``suites`` block of the
``check`` summary.  The acceptance tests call the same functions, so the
release gate and the test suite share one implementation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import competitor as comp
from . import odesolve as od
from . import reduced
from . import sets
from .errors import InvalidInput, NonConvergence
from .tension import SurfaceTension, make_tension
from .wulff import build_wulff_body

DEFAULT_SEED = 0

# Random sets per array pass of the symmetrization suite: a few hundred
# amortize numpy's per-call cost and keep the pass's arrays at a few MB.
SYMMETRIZATION_BLOCK = 256

# Random cases of the Jensen, convexity-repair, barycenter and gradient
# suites.
JENSEN_CASES = 200
CONVEXITY_CASES = 100
BARYCENTER_PERTURBATIONS = 20
GRADIENT_CASES = 50


def builtin_tensions() -> list[SurfaceTension]:
    """The admissible built-in families exercised by the property suites."""
    return [
        make_tension("euclid"),
        make_tension("pnorm", p=3.0),
        make_tension("weighted", c=2.0),
    ]


def omega_samples(tension: SurfaceTension) -> list[float]:
    """Contact coefficients {-0.8, -0.3, 0, 0.5} scaled into the range."""
    return [f * tension.f_eN for f in (-0.8, -0.3, 0.0, 0.5)]


# ---------------------------------------------------------------------------
# Symmetrization, lower bound, Jensen
# ---------------------------------------------------------------------------

def _symmetrization_block(rng, first: int, count: int, tensions, bodies):
    """Draw trials first .. first + count - 1 of the symmetrization suite and
    evaluate them as one block: their minimum energy, the comparisons made
    and the violations, in trial-major order.  The block is freed on return,
    before the next block is drawn."""
    blk = sets.random_set_block(rng, count, tensions[0])
    found, min_total, checked = [], math.inf, 0
    for m, tension in enumerate(tensions):
        omegas = np.array(omega_samples(tension))
        e_orig = sets.block_energy(blk, tension, omegas).total
        e_symm = sets.symmetrized_energy(blk, bodies[tension.tension_id], omegas).total
        min_total = min(min_total, float(e_symm.min()), float(e_orig.min()))
        checked += e_orig.size
        bad = e_symm > e_orig + 1e-9 * (1.0 + np.abs(e_orig))
        for i, j in np.argwhere(bad):
            found.append(((i, m, j), (first + int(i), tension.tension_id,
                                      float(omegas[j]), float(e_orig[i, j]),
                                      float(e_symm[i, j]))))
    return min_total, checked, [f for _, f in sorted(found)]


def _check_trials(trials: int) -> None:
    if not trials >= 1:
        raise InvalidInput(f"trials must be at least 1, got {trials}")


def suite_symmetrization(seed: int = DEFAULT_SEED, trials: int = 1000) -> dict:
    """F(A*) <= F(A) + 1e-9 (1 + |F(A)|) over seeded random sliced sets;
    ``trials`` below 1 raises InvalidInput."""
    _check_trials(trials)
    tensions = builtin_tensions()
    bodies = {t.tension_id: build_wulff_body(t, 1024) for t in tensions}
    rng = np.random.default_rng(seed)
    failures = []
    min_total = math.inf
    checked = 0
    for first in range(0, trials, SYMMETRIZATION_BLOCK):
        block_min, block_checked, found = _symmetrization_block(
            rng, first, min(SYMMETRIZATION_BLOCK, trials - first), tensions, bodies)
        min_total = min(min_total, block_min)
        checked += block_checked
        failures += found
    return {
        "passed": not failures and min_total >= -1e-9,
        "details": {
            "trials": trials,
            "checked": checked,
            "failures": failures[:10],
            "min_energy_seen": min_total,
        },
    }


def suite_jensen(seed: int = DEFAULT_SEED) -> dict:
    """Per-slab gap vanishes iff the slab is a drifting-free Wulff dilate.

    The cases are drawn first, in case order; the random bases are then
    hulled in one pass (``sets.convex_polygons``)."""
    rng = np.random.default_rng(seed)
    tension = make_tension("euclid")
    body = build_wulff_body(tension, 1024)
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    cases, drawn = [], []
    for k in range(JENSEN_CASES):
        scales, dt = [rng.uniform(0.3, 1.5), rng.uniform(0.1, 1.5)], rng.uniform(0.2, 1.0)
        kind = k % 4
        if kind == 0:
            # Homothetic Wulff slab, constant center: gap must vanish.
            base, centers = rng.uniform(0.5, 2.0) * body.geometry, np.zeros((2, 2))
        elif kind == 1:
            # Wulff base but drifting center.
            base, centers = body.geometry, [[0.0, 0.0], list(rng.uniform(0.1, 0.5, 2))]
        elif kind == 2:
            # Non-Wulff base (square under the Euclidean slice norm).
            base, centers = square, np.zeros((2, 2))
        else:
            # Random convex base, hulled below.
            drawn.append(sets.draw_constraints(rng, int(rng.integers(3, 9))))
            base, centers = None, np.zeros((2, 2))
        cases.append((k, base, scales, dt, centers))
    poly, n_vertices = sets.convex_polygons(drawn)
    random_bases = iter(np.split(poly, np.cumsum(n_vertices)[:-1]))
    bad = []
    for k, base, scales, dt, centers in cases:
        s = sets.sliced_set(next(random_bases) if base is None else base, [0.0, dt],
                            scales, centers, tension)
        expect_zero = k % 4 == 0
        gap = sets.jensen_gap(s, 0, body)
        if gap < -1e-10:
            bad.append((k, "negative", gap))
        elif expect_zero and abs(gap) > 1e-10 * (1 + scales[0]):
            bad.append((k, "should vanish", gap))
        elif not expect_zero and gap <= 1e-10:
            bad.append((k, "should be positive", gap))
    return {
        "passed": not bad,
        "details": {"cases": JENSEN_CASES, "failures": bad[:10]},
    }


def suite_wulff_identity() -> dict:
    """P_h(K_h) = (N-1)|K_h| at the documented refinement levels."""
    rows = []
    ok = True
    for h_family, h_kw in (("lp", {"h_p": 2.0}), ("l1reg", {"h_eps": 0.05}),
                           ("lp", {"h_p": 3.0})):
        tension = make_tension("euclid", h_family=h_family, **h_kw)
        for m_normals, tol in ((1024, 2e-3), (4096, 5e-4)):
            body = build_wulff_body(tension, m_normals)
            rel = abs(body.aniso_perimeter - 2.0 * body.area) / (2.0 * body.area)
            rows.append((tension.tension_id, m_normals, body.lam, rel))
            ok = ok and rel <= tol
    return {
        "passed": ok,
        "details": {"rows": rows},
    }


# ---------------------------------------------------------------------------
# ODE and solver suites
# ---------------------------------------------------------------------------

def suite_el_consistency() -> dict:
    """Interior EL residual of shooting profiles decays at order >= 1.8."""
    rows = []
    ok = True
    for tension in (make_tension("euclid"), make_tension("pnorm", p=3.0)):
        body = build_wulff_body(tension, 1024)
        sol = od.shoot(body, -0.5, 1.0)
        residuals = []
        for n in (101, 201, 401):
            prof, lam_mult = od.reconstruct_profile(sol.trajectory, body,
                                                    omega=-0.5, n_knots=n)
            residuals.append(reduced.el_residual(prof, lam_mult).max_abs(0.9 * prof.t_max))
        rates = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        rows.append((tension.tension_id, residuals, rates))
        ok = ok and all(rate >= 1.8 for rate in rates)
    return {
        "passed": ok,
        "details": {"rows": rows},
    }


def _direct(body, omega: float) -> reduced.Profile:
    """minimize_direct at m = 1, or its last iterate if it does not converge:
    a stalled solve then fails the suite's own tolerances (exit 1), not the
    run."""
    try:
        return reduced.minimize_direct(body, omega, 1.0)
    except NonConvergence as exc:
        return exc.state


def suite_young() -> dict:
    """Young's law: 1e-8 for shooting, 2x the grid slope error for direct."""
    tension = make_tension("euclid")
    body = build_wulff_body(tension, 1024)
    sol = od.shoot(body, -0.5, 1.0)
    shoot_res = abs(sol.diagnostics["young_residual"])

    p = _direct(body, -0.5)
    grid_res = abs(reduced.young_residual(p))
    # One-sided slope error estimate |r''(0)| dt / 2 propagated through d2phi.
    s0 = (p.r[1] - p.r[0]) / (p.knots[1] - p.knots[0])
    s1 = (p.r[2] - p.r[1]) / (p.knots[2] - p.knots[1])
    curv = abs(s1 - s0) / (0.5 * (p.knots[2] - p.knots[0]))
    dslope = 0.5 * curv * (p.knots[1] - p.knots[0])
    d2_lo = reduced.young_residual(p, contact_slope=s0 - dslope)
    d2_hi = reduced.young_residual(p, contact_slope=s0 + dslope)
    slope_err = max(abs(d2_lo - grid_res), abs(d2_hi - grid_res), 1e-12)
    ok = shoot_res < 1e-8 and grid_res <= 2.0 * slope_err
    return {
        "passed": ok,
        "details": {
            "shoot_residual": shoot_res,
            "direct_grid_residual": grid_res,
            "direct_slope_error_bound": slope_err,
        },
    }


def _polyline_distance(px: np.ndarray, py: np.ndarray, lx: np.ndarray,
                       ly: np.ndarray) -> np.ndarray:
    """Distance from each point (px, py) to the polyline through (lx, ly),
    with ly ascending: the least point-to-segment distance over its segments.

    A segment whose ly range lies farther than d from py is farther than d
    from the point.  So with d the distance to the segment whose ly range
    holds py, only the segments whose ly range meets [py - d, py + d] are
    evaluated, each point's window padded to the widest one.  d is widened
    by 1e-12 of itself plus the largest coordinate, so that rounding cannot
    drop the nearest segment.  Each point-segment distance is the
    brute-force expression, so the result is the same to the bit.
    """
    dx, dy = np.diff(lx), np.diff(ly)
    seg2 = np.maximum(dx * dx + dy * dy, np.finfo(float).tiny)
    last = len(dx) - 1

    def dist2(k):
        rx, ry = px[:, None] - lx[k], py[:, None] - ly[k]
        u = np.clip((rx * dx[k] + ry * dy[k]) / seg2[k], 0.0, 1.0)
        return (rx - u * dx[k]) ** 2 + (ry - u * dy[k]) ** 2

    k0 = np.clip(np.searchsorted(ly, py, side="right") - 1, 0, last)
    d = np.sqrt(dist2(k0[:, None])[:, 0])
    scale = max(np.max(np.abs(lx)), np.max(np.abs(ly)),
                np.max(np.abs(px)), np.max(np.abs(py)))
    d += 1e-12 * (d + scale)
    lo = np.minimum(np.searchsorted(ly[1:], py - d, side="left"), k0)
    hi = np.maximum(np.searchsorted(ly[:-1], py + d, side="right") - 1, k0)
    k = np.minimum(lo[:, None] + np.arange(np.max(hi - lo) + 1), last)
    return np.sqrt(np.min(dist2(k), axis=1))


def cross_difference(shoot: reduced.Profile,
                     direct: reduced.Profile) -> tuple[float, float]:
    """Shoot-vs-direct profile distances, both relative to max r of shoot.

    The L-inf difference of r at the direct knots, and the symmetric
    Hausdorff distance between the two (r, t) polylines, taken over the
    vertices of each.  For a puddle r(t) is nearly vertical at the top, so
    the first reads the difference in top height and the second does not.
    """
    scale = np.max(shoot.r)
    r_shoot = np.interp(direct.knots, shoot.knots, shoot.r)
    linf = float(np.max(np.abs(direct.r - r_shoot)) / scale)
    a, b = (shoot.r, shoot.knots), (direct.r, direct.knots)
    hausdorff = max(np.max(_polyline_distance(*a, *b)),
                    np.max(_polyline_distance(*b, *a)))
    return linf, float(hausdorff / scale)


def suite_cross_solver() -> dict:
    """shoot vs minimize_direct: 1% L-inf on profiles, 0.3% on energy.

    Rows are (tension id, L-inf, Hausdorff, relative energy difference);
    the Hausdorff distance is reported, not gated.  Each case's wall-clock
    seconds, gated at 30, go in ``case_seconds`` by tension id, apart from
    the rows, which are deterministic.
    """
    rows, case_seconds = [], {}
    ok = True
    for tension in (make_tension("euclid"), make_tension("pnorm", p=3.0)):
        omega = -0.5 * tension.f_eN
        tc0 = time.perf_counter()
        body = build_wulff_body(tension, 1024)
        sol = od.shoot(body, omega, 1.0)
        prof = _direct(body, omega)
        linf, hausdorff = cross_difference(sol.profile, prof)
        e_s = reduced.reduced_energy(sol.profile).total
        e_d = reduced.reduced_energy(prof).total
        e_rel = abs(e_d - e_s) / abs(e_s)
        elapsed = time.perf_counter() - tc0
        rows.append((tension.tension_id, linf, hausdorff, e_rel))
        case_seconds[tension.tension_id] = elapsed
        ok = ok and linf <= 0.01 and e_rel <= 0.003 and elapsed <= 30.0
    return {
        "passed": ok,
        "details": {"rows": rows, "case_seconds": case_seconds},
    }


def suite_monotonicity() -> dict:
    """dV/dv0 < 0 at 16 log-spaced v0 for every built-in tension."""
    rows = []
    ok = True
    for tension in builtin_tensions():
        omega = -0.5 * tension.f_eN
        s_st = od.s_star(tension, omega)
        vals = []
        for v0 in np.geomspace(0.1, 10.0, 16):
            vals.append(od.dV_dv0(od.integrate_v(tension, float(v0), s_stop=s_st)))
        rows.append((tension.tension_id, vals))
        ok = ok and all(v < 0 for v in vals)
    return {
        "passed": ok,
        "details": {
            "rows": [(tid, ["%.3e" % v for v in vals]) for tid, vals in rows],
            "negative": sum(v < 0 for _, vals in rows for v in vals),
            "total": sum(len(vals) for _, vals in rows),
        },
    }


def suite_convexity(seed: int = DEFAULT_SEED) -> dict:
    """Injected dents are repaired with a strict energy decrease, and each
    repair's cap has less lateral energy than the section it replaces (the
    Wulff-inequality step of the convexity proof)."""
    rng = np.random.default_rng(seed)
    tension = make_tension("euclid")
    body = build_wulff_body(tension, 1024)
    failures = []
    for k in range(CONVEXITY_CASES):
        n = 41
        tt = np.linspace(0.0, 1.0, n)
        base = np.sqrt(np.maximum(1.0 - tt**2, 0.0))
        i0 = int(rng.integers(4, 28))
        width = int(rng.integers(3, 10))
        depth = float(rng.uniform(0.5, 0.92))
        rr = base.copy()
        rr[i0:i0 + width] *= depth
        prof = reduced.Profile(knots=tt, r=rr, body=body, omega=-0.5)
        try:
            repaired = comp.repair_profile(prof, epsilon=2.0)
        except comp.CompetitorFailure as exc:
            failures.append((k, type(exc).__name__))
            continue
        if repaired is None:
            failures.append((k, "no witness"))
            continue
        if not (repaired.meta["energy_drop"] > comp.MIN_ENERGY_DROP):
            failures.append((k, "no strict decrease", repaired.meta["energy_drop"]))
        if repaired.meta["volume_error"] > 1e-8 * (1 + 1.0):
            failures.append((k, "volume drift", repaired.meta["volume_error"]))
        cap, section = comp.compare_surface_energy(prof, repaired.meta["params"])
        if not cap < section:
            failures.append((k, "cap energy not lower", cap, section))
    return {
        "passed": not failures,
        "details": {"cases": CONVEXITY_CASES, "failures": failures[:10]},
    }


def suite_barycenter(seed: int = DEFAULT_SEED) -> dict:
    """Non-constant center perturbations of a minimizer raise the energy."""
    rng = np.random.default_rng(seed)
    tension = make_tension("euclid")
    body = build_wulff_body(tension, 1024)
    omega = -0.5
    p = _direct(body, omega)
    # Lift to a SlicedSet on the Wulff base with centered slices.
    knots, r = p.knots, p.r
    base = sets.sliced_set(body.geometry, knots, r,
                           np.zeros((len(knots), 2)), tension)
    e0 = sets.energy(base, tension, omega).total
    pos = r > 0
    trimmed = sets.sliced_set(body.geometry, knots[pos], r[pos],
                              np.zeros((int(pos.sum()), 2)), tension)
    _, drift0 = sets.barycenter_path(trimmed, body)
    failures = []
    for k in range(BARYCENTER_PERTURBATIONS):
        steps = rng.normal(0.0, 0.05, (len(knots) - 1, 2))
        centers = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
        pert = sets.sliced_set(body.geometry, knots, r, centers, tension)
        e1 = sets.energy(pert, tension, omega).total
        if not (e1 > e0 + 1e-12):
            failures.append((k, e1 - e0))
    return {
        "passed": not failures and drift0 < 1e-12,
        "details": {"perturbations": BARYCENTER_PERTURBATIONS,
                    "unperturbed_drift": drift0,
                    "failures": failures[:10]},
    }


def suite_gradient(seed: int = DEFAULT_SEED) -> dict:
    """The direct solver's analytic gradient vs central differences, < 1e-5.

    On random rho over 32 apex-graded knots and a random top height T, the
    gradient :meth:`reduced._SliceMeasureFunctional.grads` returns at 4
    random free knots and dE/dT are compared with central differences of
    its energy.  For N = 2, where rho = r, that energy must also equal
    :func:`reduced.reduced_energy` of the same nodes to 1e-12 relative: the
    energy Newton minimizes is the energy it reports.
    """
    rng = np.random.default_rng(seed)
    xi = reduced.apex_graded(32)
    h = 1e-6
    worst = worst_identity = 0.0
    for name, kw in (("euclid", {}), ("pnorm", {"p": 3.0})):
        fn, fn2 = (reduced._SliceMeasureFunctional(build_wulff_body(t, 1024), -0.5, xi)
                   for t in (make_tension(name, **kw), make_tension(name, dim=2, **kw)))
        for _ in range(GRADIENT_CASES // 2):
            rho = np.append(rng.uniform(0.2, 1.5, 31), 0.0)
            t_top = float(rng.uniform(0.5, 1.5))
            _, g, de_dT, *_ = fn.grads(rho, t_top)
            # Rows 2k and 2k + 1 move knot k's rho up and down by h; the last
            # two move T.  Their 10 energies come from one call.
            knots = rng.integers(0, 31, 4)
            rows = np.repeat(rho[None], 10, axis=0)
            rows[2 * np.arange(4), knots] += h
            rows[2 * np.arange(4) + 1, knots] -= h
            tops = np.array([t_top] * 8 + [t_top + h, t_top - h])
            e = fn.energy(rows, tops)[0].tolist()
            for k, i in enumerate(knots):
                fd = (e[2 * k] - e[2 * k + 1]) / (2 * h)
                worst = max(worst, abs(g[i] - fd) / (1.0 + abs(fd)))
            fd = (e[8] - e[9]) / (2 * h)
            worst = max(worst, abs(de_dT - fd) / (1.0 + abs(fd)))
            e_slice = fn2.energy(rho, t_top)[0]
            e_radial = reduced.reduced_energy(reduced.Profile(
                knots=xi * t_top, r=rho, body=fn2.body, omega=-0.5)).total
            worst_identity = max(worst_identity, abs(e_slice - e_radial) / abs(e_radial))
    return {
        "passed": worst < 1e-5 and worst_identity <= 1e-12,
        "details": {"cases": GRADIENT_CASES, "worst_rel_error": float(worst),
                    "worst_n2_energy_rel_diff": worst_identity},
    }


def suite_volume_bridge() -> dict:
    """|E| / V_{v0}(s*) is constant across v0 (fitted, within 0.1%)."""
    rows = []
    ok = True
    for tension in builtin_tensions():
        omega = -0.5 * tension.f_eN
        body = build_wulff_body(tension, 1024)
        s_st = od.s_star(tension, omega)
        ratios = []
        for v0 in np.geomspace(0.3, 3.0, 6):
            traj = od.integrate_v(tension, float(v0), s_stop=s_st)
            prof, _ = od.reconstruct_profile(traj, body, omega=omega)
            ratios.append(reduced.reduced_volume(prof) / od.V_of(traj))
        spread = float((max(ratios) - min(ratios)) / np.mean(ratios))
        rows.append((tension.tension_id, float(np.mean(ratios)),
                     od.bridge_prediction(body), spread))
        ok = ok and spread < 1e-3
    return {
        "passed": ok,
        "details": {"rows": rows},
    }


SUITES = {
    "symmetrization": suite_symmetrization,
    "jensen": suite_jensen,
    "wulff-identity": suite_wulff_identity,
    "el-consistency": suite_el_consistency,
    "young": suite_young,
    "cross-solver": suite_cross_solver,
    "monotonicity": suite_monotonicity,
    "convexity-repair": suite_convexity,
    "barycenter": suite_barycenter,
    "gradient": suite_gradient,
    "volume-bridge": suite_volume_bridge,
}


# The suites that draw random cases take the run's seed; ``trials`` sizes
# the symmetrization suite.
SEEDED = ("symmetrization", "jensen", "convexity-repair", "barycenter", "gradient")


def run_suites(names=None, seed: int = DEFAULT_SEED, trials=None) -> dict:
    """Run the named suites (all by default) into ``{name: result}``, in run
    order, each timed into its ``details["seconds"]``.  A negative ``seed``,
    or ``trials`` below 1, raises InvalidInput before any suite runs, also
    when no suite named would read it."""
    if seed < 0:
        raise InvalidInput(f"seed must be at least 0, got {seed}")
    if trials is not None:
        _check_trials(trials)
    results = {}
    for name in names or SUITES:
        kwargs = {"seed": seed} if name in SEEDED else {}
        if trials is not None and name == "symmetrization":
            kwargs["trials"] = trials
        t0 = time.perf_counter()
        res = SUITES[name](**kwargs)
        res["details"]["seconds"] = time.perf_counter() - t0
        results[name] = res
    return results
