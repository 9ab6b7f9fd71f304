"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from wulffdrop import checks, reduced


def report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return passed


def test_01_symmetrization_inequality():
    t0 = time.perf_counter()
    res = checks.suite_symmetrization(seed=0, trials=1000)
    elapsed = time.perf_counter() - t0
    ok = res["passed"] and elapsed <= 120.0
    assert report(1, "symmetrization inequality", ok,
                  f"{res['details']['checked']} comparisons in {elapsed:.1f}s"), res


def test_02_jensen_equality_rigidity():
    res = checks.suite_jensen(seed=0, cases=200)
    assert report(2, "Jensen equality rigidity", res["passed"],
                  f"{res['details']['cases']} cases"), res


def test_03_energy_lower_bound():
    res = checks.suite_symmetrization(seed=1, trials=200)
    floor = res["details"]["min_energy_seen"]
    ok = floor >= -1e-9
    assert report(3, "energy lower bound", ok, f"min energy {floor:.3e}"), res


def test_04_wulff_identity():
    t0 = time.perf_counter()
    res = checks.suite_wulff_identity()
    ok = res["passed"] and (time.perf_counter() - t0) < 60.0
    worst = max(row[3] for row in res["details"]["rows"])
    assert report(4, "Wulff identity", ok, f"worst rel dev {worst:.2e}"), res


def test_05_euler_lagrange_consistency():
    res = checks.suite_el_consistency()
    rates = [f"{r:.2f}" for _, _, rr in res["details"]["rows"] for r in rr]
    assert report(5, "Euler-Lagrange consistency", res["passed"],
                  f"orders {rates}"), res


def test_06_youngs_law():
    res = checks.suite_young()
    d = res["details"]
    assert report(6, "Young's law", res["passed"],
                  f"shoot {d['shoot_residual']:.1e}, "
                  f"direct {d['direct_grid_residual']:.1e} vs "
                  f"2x slope error {2 * d['direct_slope_error_bound']:.1e}"), res


def test_07_cross_solver_oracle():
    res = checks.suite_cross_solver()
    seconds = res["details"]["case_seconds"]
    rows = ", ".join(f"{tid}: Linf {li:.4f} Hausdorff {hd:.4f} dE {er:.5f} "
                     f"{seconds[tid]:.0f}s"
                     for tid, li, hd, er in res["details"]["rows"])
    assert report(7, "cross-solver oracle", res["passed"], rows), res


def test_08_uniqueness_monotonicity():
    res = checks.suite_monotonicity()
    d = res["details"]
    assert report(8, "uniqueness monotonicity", res["passed"],
                  f"{d['negative']}/{d['total']} derivatives negative"), res


def test_09_convexity_of_minimizers(euclid_direct, euclid_shoot):
    solver_ok = True
    for prof in (euclid_direct, euclid_shoot.profile):
        solver_ok = solver_ok and prof.concavity_defect() <= 1e-7 * np.max(prof.r)
        solver_ok = solver_ok and prof.support_is_interval()
    res = checks.suite_convexity(seed=0, cases=100)
    ok = solver_ok and res["passed"]
    assert report(9, "convexity of minimizers", ok,
                  f"repairs on {res['details']['cases']} seeded dents"), res


def test_10_barycenter_constancy():
    res = checks.suite_barycenter(seed=0, perturbations=20)
    d = res["details"]
    assert report(10, "barycenter constancy", res["passed"],
                  f"drift {d['unperturbed_drift']:.2e}, "
                  f"{d['perturbations']} perturbations"), res


def test_11_gradient_check():
    res = checks.suite_gradient(seed=0, cases=50)
    d = res["details"]
    assert report(11, "gradient check", res["passed"],
                  f"worst rel err {d['worst_rel_error']:.2e}, N=2 energy "
                  f"identity {d['worst_n2_energy_rel_diff']:.1e}"), res


def test_12_volume_bridge():
    res = checks.suite_volume_bridge()
    rows = ", ".join(f"{tid}: c={c:.4f} (pred {p:.4f}, spread {s:.2e})"
                     for tid, c, p, s in res["details"]["rows"])
    assert report(12, "volume bridge", res["passed"], rows), res
