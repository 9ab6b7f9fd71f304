import importlib.util
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import wulffdrop
from wulffdrop import checks, cli, competitor, reduced, sets
from wulffdrop.errors import NonConvergence
from wulffdrop.tension import ScaledPNorm, make_tension, tension_to_config
from wulffdrop.wulff import build_wulff_body

# tools/against_base.py, for the timing-field rule of two check summaries.
_spec = importlib.util.spec_from_file_location(
    "against_base", Path(__file__).resolve().parents[1] / "tools" / "against_base.py")
against_base = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(against_base)


@pytest.fixture()
def tension_file(tmp_path, euclid):
    path = tmp_path / "tension.json"
    path.write_text(json.dumps(tension_to_config(euclid)))
    return str(path)


def run(argv):
    return cli.main(argv)


def set_document(s):
    """The sliced-set document of ``s``, as ``symmetrize --set`` reads it."""
    return json.dumps({"base_vertices": np.asarray(s.base_vertices).tolist(),
                       "knots": s.knots.tolist(), "scales": s.scales.tolist(),
                       "centers": s.centers.tolist()})


def test_solve_rejects_omega_out_of_range(tension_file, tmp_path, capsys):
    code = run(["solve", "--tension", tension_file, "--omega", "5.0",
                "--mass", "1.0", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "(-1.0, 1.0)" in err  # names the admissible interval


def test_solve_rejects_nonpositive_mass(tension_file, tmp_path):
    code = run(["solve", "--tension", tension_file, "--omega", "-0.5",
                "--mass", "0.0", "--out", str(tmp_path / "p.csv")])
    assert code == 2


def test_solve_shoot_writes_outputs(tension_file, tmp_path):
    out = tmp_path / "prof.csv"
    rep = tmp_path / "report.json"
    svg = tmp_path / "prof.svg"
    code = run(["solve", "--tension", tension_file, "--omega", "-0.5",
                "--mass", "1.0", "--method", "shoot",
                "--out", str(out), "--report", str(rep), "--plot", str(svg)])
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[0, 0] == 0.0
    assert rows[-1, 1] == 0.0
    report = json.loads(rep.read_text())
    assert report["shoot"]["energy"]["volume"] == pytest.approx(1.0, rel=1e-6)

    # SVG plot contract: polyline endpoints (+-r_0, 0), apex (0, T_max).
    svg_text = svg.read_text()
    assert 'width="800" height="600"' in svg_text
    pts = re.search(r'points="([^"]+)"', svg_text).group(1).split()
    first = [float(v) for v in pts[0].split(",")]
    last = [float(v) for v in pts[-1].split(",")]
    r0, t_max = rows[0, 1], rows[-1, 0]
    assert first == pytest.approx([-r0, 0.0], abs=1e-12)
    assert last == pytest.approx([r0, 0.0], abs=1e-12)
    assert any(abs(float(p.split(",")[0])) < 1e-12
               and abs(float(p.split(",")[1]) - t_max) < 1e-12 for p in pts)


def test_solve_deterministic_outputs(tension_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"p{tag}.csv"
        rep = tmp_path / f"r{tag}.json"
        assert run(["solve", "--tension", tension_file, "--omega", "-0.5",
                    "--mass", "1.0", "--method", "shoot",
                    "--out", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        report.pop("wall_time_s")  # the only volatile field
        outs.append((out.read_bytes(), json.dumps(report, sort_keys=True)))
    assert outs[0] == outs[1]


def test_solve_method_both_cross_difference(tension_file, tmp_path):
    out = tmp_path / "prof.csv"
    rep = tmp_path / "report.json"
    code = run(["solve", "--tension", tension_file, "--omega", "-0.5",
                "--mass", "1.0", "--method", "both", "--grid-size", "161",
                "--out", str(out), "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["cross_difference_linf"] <= 0.01
    assert 0.0 < report["cross_difference_hausdorff"] <= 0.01
    assert (tmp_path / "prof-direct.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_solve_writes_into_missing_directories(tension_file, tmp_path, flag):
    # Each output path names its own fresh nested directory.
    paths = {"--out": tmp_path / "p.csv", "--report": tmp_path / "r.json"}
    paths[flag] = tmp_path / "fresh" / "nested" / paths[flag].name
    argv = ["solve", "--tension", tension_file, "--omega", "-0.5",
            "--mass", "1.0", "--method", "shoot"]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert run(argv) == 0
    assert paths[flag].is_file()
    assert [p.name for p in paths[flag].parent.iterdir()] == [paths[flag].name]


def test_wulff_subcommand(tension_file, tmp_path):
    out = tmp_path / "body.json"
    svg = tmp_path / "body.svg"
    assert run(["wulff", "--tension", tension_file, "--out", str(out),
                "--svg", str(svg)]) == 0
    body = json.loads(out.read_text())
    assert body["lambda"] == pytest.approx(2.0, abs=1e-9)
    assert len(body["edges"]) == body["m_normals"]
    assert svg.exists()
    # N = 2: each slice is an interval, with the outer normals -1 and +1.
    for family, params in (("euclid", {}), ("weighted", {"c": 2.0}), ("pnorm", {"p": 3.0})):
        path = tmp_path / f"{family}2.json"
        path.write_text(json.dumps(tension_to_config(make_tension(family, dim=2, **params))))
        assert run(["wulff", "--tension", str(path), "--out", str(out)]) == 0
        edges = json.loads(out.read_text())["edges"]
        assert [edge["normal"] for edge in edges] == [[-1.0], [1.0]]


@pytest.mark.parametrize("h", [{"family": "lp", "p": 2.0}, {"family": "l1reg", "eps": 0.05}])
def test_wulff_svg_draws_an_interval_body(h, tmp_path):
    # N = 2: the body [lo, hi] is drawn as one segment through (lo, 0) and (hi, 0).
    path = tmp_path / "tension.json"
    path.write_text(json.dumps({"N": 2, "phi": {"family": "euclid"}, "h": h}))
    out, svg = tmp_path / "body.json", tmp_path / "body.svg"
    assert run(["wulff", "--tension", str(path), "--out", str(out), "--svg", str(svg)]) == 0
    lo, hi = json.loads(out.read_text())["vertices"]
    lines = ElementTree.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}polyline")
    (line,) = lines
    points = [float(x) for p in line.get("points").split() for x in p.split(",")]
    assert points == pytest.approx([lo, 0.0, hi, 0.0], rel=1e-11)


def test_symmetrize_subcommand(tension_file, tmp_path, euclid):
    rng = np.random.default_rng(2)
    s = sets.random_sliced_set(rng, euclid)
    set_path = tmp_path / "set.json"
    set_path.write_text(set_document(s))
    out = tmp_path / "sym.csv"
    rep = tmp_path / "sym.json"
    assert run(["symmetrize", "--tension", tension_file, "--omega", "-0.3",
                "--set", str(set_path), "--out", str(out),
                "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["energy_drop"] >= -1e-9
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[0] == len(s.knots)


def write_dented_quarter_circle(tension, tmp_path, lo=12, hi=20, factor=0.75):
    """The 41-knot quarter circle with r[lo:hi] *= factor as a profile CSV;
    returns its path."""
    t = np.linspace(0.0, 1.0, 41)
    r = np.sqrt(np.maximum(1 - t**2, 0.0))
    r[lo:hi] *= factor
    prof_path = tmp_path / "dent.csv"
    cli.write_profile_csv(str(prof_path), reduced.Profile(
        knots=t, r=r, body=build_wulff_body(tension, 1024), omega=-0.5))
    return prof_path


def test_repair_subcommand(tension_file, tmp_path, euclid):
    prof_path = write_dented_quarter_circle(euclid, tmp_path)
    out = tmp_path / "fixed.csv"
    rep = tmp_path / "log.json"
    assert run(["repair", "--tension", tension_file, "--omega", "-0.5",
                "--profile", str(prof_path), "--out", str(out),
                "--report", str(rep)]) == 0
    log = json.loads(rep.read_text())
    assert log["repairs"]
    assert all("sigma" in entry for entry in log["repairs"]
               if "failed" not in entry)
    assert all(entry.get("energy_drop", 1.0) > 0 for entry in log["repairs"])
    assert log["concavity_defect"] <= 1e-6


def repair_dented_quarter_circle(tension, tmp_path):
    """Run ``repair`` on the 41-knot quarter circle with r[12:20] *= 0.75;
    returns the exit code and the report path."""
    tension_path = tmp_path / "tension.json"
    tension_path.write_text(json.dumps(tension_to_config(tension)))
    prof_path = write_dented_quarter_circle(tension, tmp_path)
    rep = tmp_path / "log.json"
    code = run(["repair", "--tension", str(tension_path), "--omega", "-0.5",
                "--profile", str(prof_path), "--out", str(tmp_path / "fixed.csv"),
                "--report", str(rep)])
    return code, rep


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_repair_stops_at_rounding_level(request, family, tmp_path):
    # Without a floor on the energy drop, all 32 default repairs run and the
    # last of them drop the energy by as little as 1e-13.
    code, rep = repair_dented_quarter_circle(request.getfixturevalue(family),
                                             tmp_path)
    assert code == 0
    repairs = json.loads(rep.read_text())["repairs"]
    assert 0 < len(repairs) < 32
    assert all(entry["energy_drop"] > competitor.MIN_ENERGY_DROP
               for entry in repairs)


def test_repair_passes_over_rounding_level_violations(weighted2, tmp_path):
    # The deepest kink left after 14 repairs sits on a span of 1e-4 and gains
    # 9e-11; a shallower kink on a span of 0.025 still gains 6e-6.  Stopping
    # at the first repair at rounding level ends at 8.628976249862; all 32
    # repairs, taken blindly, reach 8.628970219160.
    code, rep = repair_dented_quarter_circle(weighted2, tmp_path)
    assert code == 0
    assert json.loads(rep.read_text())["final_energy"] <= 8.628970219160 + 1e-9


def test_repair_logs_no_failure_at_rounding_level(tension_file, tmp_path, euclid):
    # A line with a kink of 1e-11 on a span of 2e-9: its worst violation has
    # a relative deficit of 1.1e-16, and no cap fits it.  That is concave to
    # rounding, so the log stays empty instead of ending in a failure.
    t = np.array([0.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 2.0])
    r = 2.0 - t / 2.0
    r[1:] += 1e-11 * (t[1:] - 1.0)
    prof_path = tmp_path / "line.csv"
    cli.write_profile_csv(str(prof_path), reduced.Profile(
        knots=t, r=r, body=build_wulff_body(euclid, 1024), omega=-0.5))
    rep = tmp_path / "log.json"
    assert run(["repair", "--tension", tension_file, "--omega", "-0.5",
                "--profile", str(prof_path), "--out", str(tmp_path / "out.csv"),
                "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["repairs"] == []


def repair_cut_quarter_circle(tension_file, euclid, tmp_path, lo, hi):
    """Run ``repair`` on the 41-knot quarter circle with r[lo:hi] = 0;
    returns the report."""
    prof_path = write_dented_quarter_circle(euclid, tmp_path, lo, hi, factor=0.0)
    rep = tmp_path / "log.json"
    assert run(["repair", "--tension", tension_file, "--omega", "-0.5",
                "--profile", str(prof_path), "--out", str(tmp_path / "out.csv"),
                "--report", str(rep)]) == 0
    return json.loads(rep.read_text())


def test_repair_leaves_a_zero_tail_alone(tension_file, euclid, tmp_path):
    # Cut off above t = 0.8, the circle is concave on its support: no repair
    # and no failure is logged.
    log = repair_cut_quarter_circle(tension_file, euclid, tmp_path, 33, 41)
    assert log["repairs"] == []
    assert log["concavity_defect"] < 0


def test_repair_reports_an_interior_gap_as_not_concave(tension_file, euclid, tmp_path):
    # Knots 12-14 zeroed: two stacked pieces, whatever the repair makes of them.
    log = repair_cut_quarter_circle(tension_file, euclid, tmp_path, 12, 15)
    assert log["concavity_defect"] > 0


@pytest.mark.parametrize("scale", [1e-20, 1e-45, 1e-60])
def test_repair_of_a_tiny_profile_never_tracebacks(scale, tension_file, tmp_path,
                                                   euclid, capsys):
    # The dented quarter circle shrunk in t and r alike.  Once this ended in
    # a traceback, with a different cause at each scale: splice tolerances
    # absolute in t (1e-20), Brent's extrapolation dividing by an
    # underflowed 0 (1e-45), and a bracket scan multiplying residuals whose
    # product underflows (1e-60).
    t = np.linspace(0.0, 1.0, 41)
    r = np.sqrt(np.maximum(1 - t**2, 0.0))
    r[12:20] *= 0.75
    prof_path = tmp_path / "tiny.csv"
    cli.write_profile_csv(str(prof_path), reduced.Profile(
        knots=scale * t, r=scale * r, body=build_wulff_body(euclid, 1024), omega=-0.5))
    code = run(["repair", "--tension", tension_file, "--omega", "-0.5",
                "--profile", str(prof_path), "--out-dir", str(tmp_path / "out")])
    assert code in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_manhattan_weight_repair_and_direct_solve(tmp_path, capsys):
    # pnorm p = 1 has the box Wulff shape, alpha = 1 on (-1, 1): no cap can
    # make a far slice wider than its cut, so the repair logs one NoBracket
    # and exits 0, and the direct solver fails from the box start (exit 3).
    tension = make_tension("pnorm", p=1.0)
    code, rep = repair_dented_quarter_circle(tension, tmp_path)
    assert code == 0
    assert json.loads(rep.read_text())["repairs"] == [{"failed": "NoBracket"}]
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    code = run(["solve", "--tension", str(tmp_path / "tension.json"),
                "--method", "direct", "--omega=-0.5", "--mass", "1",
                "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert not out.exists()


def test_check_subcommand(tmp_path):
    rep = tmp_path / "summary.json"
    assert run(["check", "--suite", "wulff-identity",
                "--report", str(rep)]) == 0
    summary = json.loads(rep.read_text())
    assert summary["suites"]["wulff-identity"]["passed"]


# The value types a check result may hold: it is written to JSON as it is.
PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def _non_plain(obj, path="suites"):
    """Paths in obj to a value, or a dict key, of a type outside PLAIN."""
    if type(obj) not in PLAIN:
        return [f"{path}: {type(obj).__name__}"]
    if isinstance(obj, dict):
        return ([f"{path}: key {k!r}" for k in obj if type(k) is not str]
                + [p for k, v in obj.items() for p in _non_plain(v, f"{path}/{k}")])
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_plain(v, f"{path}[{i}]")]
    return []


@pytest.fixture(scope="module")
def all_suites():
    """Every suite run once at the default seed."""
    return checks.run_suites()


def test_check_results_are_plain(all_suites):
    # Named by their SUITES keys in run order, each {passed, details}.
    assert list(all_suites) == list(checks.SUITES)
    for name, res in all_suites.items():
        assert set(res) == {"passed", "details"}, name
        assert type(res["passed"]) is bool, name
        assert type(res["details"]["seconds"]) is float, name
    assert _non_plain(all_suites) == []
    json.dumps({"seed": checks.DEFAULT_SEED, "suites": all_suites},
               sort_keys=True, indent=2)


@pytest.mark.parametrize("failing", [(), ("jensen", "young")])
def test_check_writes_the_results_it_ran(all_suites, failing, tmp_path,
                                         monkeypatch, capsys):
    # The summary's suites block is run_suites' dict, unconverted; stdout
    # lists each suite in run order and stderr the failed ones.
    results = {name: {"passed": name not in failing, "details": res["details"]}
               for name, res in all_suites.items()}
    monkeypatch.setattr(checks, "run_suites", lambda **kwargs: results)
    rep = tmp_path / "summary.json"
    assert run(["check", "--report", str(rep)]) == (1 if failing else 0)
    assert json.loads(rep.read_text()) == json.loads(json.dumps(
        {"seed": checks.DEFAULT_SEED, "suites": results}))
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{'FAIL' if name in failing else 'PASS'}  {name}"
                                for name in checks.SUITES]
    assert err == (f"failed suites: {', '.join(failing)}\n" if failing else "")


def test_sweep_subcommand(tension_file, tmp_path):
    assert run(["sweep", "--tension", tension_file, "--omegas=-0.7,-0.4",
                "--mass", "1.0", "--out-dir", str(tmp_path / "sw")]) == 0
    summary = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert len(summary["points"]) == 2
    # Less wetting energy gain: the drop beads up, so it gets taller.
    assert summary["points"][1]["T_max"] > summary["points"][0]["T_max"]


def test_sweep_checks_every_omega_before_the_first_shoot(tension_file, tmp_path,
                                                        capsys):
    out = tmp_path / "sw"
    assert run(["sweep", "--tension", tension_file, "--omegas=-0.5,0.2",
                "--mass", "1.0", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: omega=0.2 outside the graph regime (-1.0, 0)"]
    assert not (out / "sweep-000.csv").exists()
    assert not out.exists()


def test_solve_both_outside_the_graph_regime_writes_nothing(tension_file,
                                                           tmp_path, capsys):
    # omega = 0.1 is admissible, so only the shoot half of --method both
    # rejects it, before any output is written.
    out = tmp_path / "out"
    assert run(["solve", "--tension", tension_file, "--omega=0.1", "--mass", "1",
                "--method", "both", "--out-dir", str(out),
                "--plot", str(out / "p.svg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "graph regime (-1.0, 0)" in err[0]
    assert not out.exists()


def test_solve_method_both_deterministic_outputs(tension_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"p{tag}.csv"
        rep = tmp_path / f"r{tag}.json"
        assert run(["solve", "--tension", tension_file, "--omega", "-0.5",
                    "--mass", "1.0", "--method", "both",
                    "--out", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["direct"]["converged"]
        report.pop("wall_time_s")
        outs.append((out.read_bytes(), (tmp_path / f"p{tag}-direct.csv").read_bytes(),
                     json.dumps(report, sort_keys=True)))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("doc,names", [
    ('{"N": 3, "phi": {"family": "bogus"}, "h": {"family": "lp", "p": 2.0}}',
     "'bogus'"),
    ('{"N": 3, "phi": {"family": "eucl', "not a JSON document"),
    ('{"phi": {"family": "euclid"}, "h": {"family": "lp", "p": 2.0}}', "'N'"),
    ('{"N": 3, "phi": {"family": "weighted", "c": -1}, '
     '"h": {"family": "lp", "p": 2.0}}', "c > 0"),
    ('{"N": 3, "phi": {"family": "pnorm", "p": 0.5}, '
     '"h": {"family": "lp", "p": 2.0}}', "p >= 1"),
    ('{"N": 3, "phi": {"family": "euclid"}, "h": {"family": "lp", "p": 2.0}, '
     '"derivative_mode": "central-difference"}', "'central-difference'"),
    ('{"N": 3, "phi": {"family": "euclid"}, "h": {"family": "l1reg", "eps": NaN}}',
     "eps=nan"),
    ('{"N": 3, "phi": {"family": "euclid"}, "h": {"family": "l1reg", "eps": 1e200}}',
     "eps=1e+200"),
    ('{"N": 3, "phi": {"family": "euclid"}, "h": {"family": "lp", "p": NaN}}',
     "lp slice norm needs p >= 1, got p=nan"),
    ('{"N": 3, "phi": {"family": "pnorm", "p": Infinity}, '
     '"h": {"family": "lp", "p": 2.0}}', "finite p >= 1"),
    ('{"N": 3, "phi": {"family": "weighted", "c": Infinity}, '
     '"h": {"family": "lp", "p": 2.0}}', "finite c > 0"),
    ('{"N": 3.7, "phi": {"family": "euclid"}, "h": {"family": "lp", "p": 2.0}}',
     "N must be an integer, got 3.7"),
    ('{"N": Infinity, "phi": {"family": "euclid"}, "h": {"family": "lp", "p": 2.0}}',
     "N must be an integer, got inf"),
], ids=["unknown-family", "truncated", "no-N", "weighted-c-negative",
        "pnorm-p-below-1", "central-difference", "l1reg-eps-nan",
        "l1reg-eps-1e200", "lp-p-nan", "pnorm-p-inf", "weighted-c-inf",
        "N-non-integral", "N-inf"])
def test_malformed_tension_document_is_a_validation_error(doc, names, tmp_path,
                                                          capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code = run(["solve", "--tension", str(path), "--omega", "-0.5",
                "--mass", "1.0", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names in err[0]
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("case", ["truncated-set", "nan-knot-set", "non-numeric-csv",
                                  "nan-radius-csv", "inf-radius-csv",
                                  "tension-is-directory"])
def test_malformed_input_file_is_a_validation_error(case, tension_file, tmp_path,
                                                    capsys):
    bad = tmp_path / "bad"
    set_argv = ["symmetrize", "--tension", tension_file, "--omega", "-0.3", "--set", str(bad)]
    csv_argv = ["repair", "--tension", tension_file, "--omega", "-0.5", "--profile", str(bad)]
    if case == "truncated-set":
        bad.write_text('{"base_vertices": [[0, 0], [1, 0]')
        argv = set_argv
    elif case == "nan-knot-set":
        bad.write_text(json.dumps({"base_vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                   "knots": [0.0, float("nan")], "scales": [1.0, 0.5],
                                   "centers": [[0.0, 0.0], [0.0, 0.0]]}))
        argv = set_argv
    elif case.endswith("-csv"):
        radius = {"non-numeric-csv": "oops", "nan-radius-csv": "nan",
                  "inf-radius-csv": "inf"}[case]
        bad.write_text(f"t,r\n0.0,1.0\n0.5,{radius}\n1.0,0.0\n")
        argv = csv_argv
    else:
        bad.mkdir()
        argv = ["solve", "--tension", str(bad), "--omega", "-0.5",
                "--mass", "1.0"]
    out = tmp_path / "out"
    code = run(argv + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(bad) in err[0]
    assert not out.exists()


@pytest.mark.parametrize("n,base", [
    (2, [1.0, 1.0]), (2, [1.0, -1.0]), (3, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    (2, [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]), (3, [-1.0, 1.0]),
], ids=["empty-interval", "reversed-interval", "clockwise-triangle",
        "triangle-under-N2", "interval-under-N3"])
def test_an_invalid_set_base_is_a_validation_error(n, base, tmp_path, capsys):
    # The base must be an interval lo < hi for N = 2 and a CCW polygon for N = 3.
    tension, doc = tmp_path / "tension.json", tmp_path / "set.json"
    tension.write_text(json.dumps(tension_to_config(make_tension("euclid", dim=n))))
    doc.write_text(json.dumps({"base_vertices": base, "knots": [0.0, 1.0],
                               "scales": [1.0, 0.5], "centers": [[0.0] * (n - 1)] * 2}))
    out = tmp_path / "out"
    assert run(["symmetrize", "--tension", str(tension), "--omega=-0.3",
                "--set", str(doc), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{doc} is not a valid sliced-set document" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,names", [
    (["sweep", "--omegas=-0.5,abc", "--mass", "1.0"], "'abc'"),
    (["sweep", "--omegas=-0.5", "--mass", "-1"], "mass must be positive"),
    (["wulff", "--m-normals", "4"], "at least 8 normals"),
    (["symmetrize", "--omega", "-0.3", "--set", "unused.json",
      "--m-normals", "4"], "at least 8 normals"),
], ids=["non-numeric-omega", "negative-mass", "wulff-few-normals",
        "symmetrize-few-normals"])
def test_bad_flags_are_validation_errors(argv, names, tension_file, tmp_path,
                                         capsys):
    if "--set" in argv:
        set_path = tmp_path / "unused.json"
        set_path.write_text(set_document(
            sets.random_sliced_set(np.random.default_rng(0), make_tension("euclid"))))
        argv = [str(set_path) if a == "unused.json" else a for a in argv]
    out = tmp_path / "out"
    code = run(argv[:1] + ["--tension", tension_file] + argv[1:]
               + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,names", [
    (["solve", "--omega=-0.5", "--mass", "inf", "--method", "direct"],
     "mass must be positive and finite"),
    (["solve", "--omega=-0.5", "--mass", "nan"], "mass must be positive and finite"),
    (["sweep", "--omegas=-0.5", "--mass", "nan"], "mass must be positive and finite"),
    (["sweep", "--omegas=-0.5", "--mass", "inf"], "mass must be positive and finite"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "direct",
      "--grid-size", "0"], "grid_size must be at least 3"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "direct",
      "--grid-size", "1"], "grid_size must be at least 3"),
    (["check", "--suite", "symmetrization", "--trials", "0"],
     "trials must be at least 1, got 0"),
    (["check", "--suite", "symmetrization", "--trials", "-1"],
     "trials must be at least 1, got -1"),
    (["check", "--seed", "-1"], "seed must be at least 0, got -1"),
    # wulff-identity draws nothing, and the seed is still checked.
    (["check", "--suite", "wulff-identity", "--seed", "-1"],
     "seed must be at least 0, got -1"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "direct",
      "--max-iter", "0"], "max_iter must be at least 1"),
    (["repair", "--omega=-0.5", "--epsilon", "0"], "epsilon must be positive"),
    (["repair", "--omega=-0.5", "--epsilon", "-1"], "epsilon must be positive"),
    (["repair", "--omega=-0.5", "--epsilon", "nan"], "epsilon must be positive"),
    # Checked before any repair runs, so also when none would.
    (["repair", "--omega=-0.5", "--epsilon", "0", "--max-repairs", "0"],
     "epsilon must be positive"),
    (["repair", "--omega=-0.5", "--max-repairs", "-1"],
     "--max-repairs must be at least 0"),
    # Sizes past the bound are refused before any array is made.
    (["wulff", "--m-normals", "10000000000000000000"], "m_normals must be at most"),
    (["wulff", "--m-normals", str(2**21)], "m_normals must be at most 1048576"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "direct",
      "--grid-size", "10000000000000000000"], "grid_size must be at most"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "direct",
      "--grid-size", str(2**21)], "grid_size must be at most 1048576"),
    # The direct solve's options are checked before any solve, also when
    # only the shoot runs, or runs first.
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "shoot",
      "--max-iter", "0"], "max_iter must be at least 1"),
    (["solve", "--omega=-0.9", "--mass", "1000", "--method", "both",
      "--grid-size", str(2**21)], "grid_size must be at most 1048576"),
    (["solve", "--omega=-0.5", "--mass", "1", "--method", "both",
      "--grid-size", "2"], "grid_size must be at least 3"),
], ids=["solve-direct-infinite-mass", "solve-nan-mass", "sweep-nan-mass",
        "sweep-infinite-mass", "direct-grid-size-0", "direct-grid-size-1",
        "check-zero-trials", "check-negative-trials", "check-negative-seed",
        "check-negative-seed-unseeded-suite", "direct-max-iter-0",
        "repair-zero-epsilon", "repair-negative-epsilon", "repair-nan-epsilon",
        "repair-zero-epsilon-no-repairs",
        "repair-negative-max-repairs", "wulff-m-normals-1e19", "wulff-m-normals-2-pow-21",
        "direct-grid-size-1e19", "direct-grid-size-2-pow-21", "shoot-max-iter-0",
        "both-grid-size-2-pow-21", "both-grid-size-2"])
def test_out_of_range_numbers_are_validation_errors(argv, names, tension_file,
                                                    tmp_path, capsys, euclid,
                                                    monkeypatch):
    def no_shoot(*args):
        raise AssertionError("shoot ran before the arguments were checked")

    # The direct solve's options are refused before any shoot; the mass is
    # the shoot's own first check.
    if "--grid-size" in argv or "--max-iter" in argv:
        monkeypatch.setattr(wulffdrop.odesolve, "shoot", no_shoot)
    out = tmp_path / "out"
    if argv[0] == "repair":
        # A dented profile that a valid repair would change.
        argv = argv + ["--profile", str(write_dented_quarter_circle(euclid, tmp_path))]
    if argv[0] == "check":
        argv = argv + ["--report", str(out)]
    else:
        argv = argv[:1] + ["--tension", tension_file] + argv[1:] + [
            "--out-dir", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names in err[0]
    assert not out.exists()


def test_closed_derivative_mode_document_solves(tmp_path):
    # Older documents name the one derivative mode explicitly.
    path = tmp_path / "closed.json"
    path.write_text('{"N": 3, "phi": {"family": "euclid"}, '
                    '"h": {"family": "lp", "p": 2.0}, "derivative_mode": "closed"}')
    assert run(["solve", "--tension", str(path), "--omega", "-0.5",
                "--mass", "1.0", "--method", "shoot",
                "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "profile.csv").exists()


def test_manhattan_weight_shoot_exits_3(tmp_path, capsys):
    # pnorm p = 1 builds (it is inadmissible by design) but has no slope
    # inverse for the shooting solver.
    path = tmp_path / "p1.json"
    path.write_text('{"N": 3, "phi": {"family": "pnorm", "p": 1.0}, '
                    '"h": {"family": "lp", "p": 2.0}}')
    out = tmp_path / "out"
    code = run(["solve", "--tension", str(path), "--method", "shoot",
                "--omega=-0.5", "--mass", "1", "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert "p = 1" in err[0]
    assert not out.exists()


def test_shoot_failure_exits_3(tension_file, tmp_path, capsys):
    # The v0 scan cannot reach this volume: a solver failure, not bad input.
    out = tmp_path / "out"
    code = run(["solve", "--tension", tension_file, "--method", "shoot",
                "--omega=-0.9", "--mass", "1000", "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert not out.exists()


@pytest.mark.parametrize("family,k", [
    ("euclid", 49), ("euclid", 51), ("euclid", 52), ("euclid", 53),
    ("pnorm3", 50), ("pnorm3", 51), ("pnorm3", 52), ("pnorm3", 53),
    ("pnorm1.5", 51), ("pnorm1.5", 52), ("pnorm1.5", 53),
    ("weighted2", 52), ("weighted2", 53)])
def test_shoot_within_rounding_of_minus_phi_e_n_exits_3(family, k, tmp_path, capsys):
    # At omega = -(1 - 2^-k) phi(0, 1) a probe's volume comes out <= 0: a
    # solver failure, not a traceback from the log of the volume.
    name, params = {"euclid": ("euclid", {}), "pnorm3": ("pnorm", {"p": 3.0}),
                    "pnorm1.5": ("pnorm", {"p": 1.5}),
                    "weighted2": ("weighted", {"c": 2.0})}[family]
    tension = make_tension(name, **params)
    path = tmp_path / "tension.json"
    path.write_text(json.dumps(tension_to_config(tension)))
    out = tmp_path / "out"
    code = run(["solve", "--tension", str(path), f"--omega={-(1 - 2.0**-k) * tension.f_eN!r}",
                "--mass", "1", "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert not out.exists()


def test_direct_step_budget_exhausted_exits_3(tension_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["solve", "--tension", tension_file, "--method", "direct",
                "--omega=-0.5", "--mass", "10", "--max-iter", "1",
                "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tension,mass", [(make_tension("pnorm", p=60.0), "1"),
                                          (make_tension("euclid"), "1e300")],
                         ids=["pnorm60", "euclid-mass-1e300"])
def test_direct_overflow_exits_3_without_a_warning(tension, mass, tmp_path, capsys):
    # |t|^60 at a line-search trial point, or the potential of a huge drop,
    # overflows: a solver failure with one error line, not a RuntimeWarning
    # (a traceback under warnings-as-errors).
    path = tmp_path / "tension.json"
    path.write_text(json.dumps(tension_to_config(tension)))
    out = tmp_path / "out"
    code = run(["solve", "--tension", str(path), "--method", "direct",
                "--omega=-0.9", "--mass", mass, "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: solver failed")
    assert not out.exists()


def test_check_young_passes_on_a_stalled_solve_with_a_good_iterate(
        monkeypatch, capsys, euclid_direct):
    # The suite judges the iterate a NonConvergence carries, so a stalled
    # solve ends as PASS or FAIL of the suite, never as a crashed run.
    def stalled(*args, **kwargs):
        raise NonConvergence("stalled", state=euclid_direct)

    monkeypatch.setattr(reduced, "minimize_direct", stalled)
    assert run(["check", "--suite", "young"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS  young"]


def test_nan_slope_shoot_exits_3(tension_file, tmp_path, capsys, monkeypatch):
    # A NaN slope inverse stalls the capillary ODE stepper: a solver
    # failure with one error line, not a traceback.
    monkeypatch.setattr(ScaledPNorm, "d1_inverse",
                        lambda self, w, t: np.full(np.shape(w), np.nan))
    out = tmp_path / "out"
    code = run(["solve", "--tension", tension_file, "--method", "shoot",
                "--omega=-0.5", "--mass", "1", "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: solver failed: capillary ODE solve failed")
    assert "Traceback" not in err
    assert not out.exists()


def run_python_process(code, argv, timeout, **env_vars):
    """``python -c code *argv`` in a fresh interpreter that imports this
    wulffdrop, with ``env_vars`` set, under a wall-clock bound, so that a
    hang fails the test (subprocess.TimeoutExpired) instead of stalling the
    suite."""
    env = dict(os.environ, **env_vars)
    src = os.path.dirname(os.path.dirname(wulffdrop.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


def run_cli_process(argv, timeout):
    """The CLI run in a fresh interpreter under a wall-clock bound."""
    return run_python_process("import sys; from wulffdrop.cli import main; "
                              "sys.exit(main(sys.argv[1:]))", argv, timeout)


def test_cli_imports_no_scipy():
    # The runtime needs numpy alone: importing the CLI loads no scipy module,
    # and no source file imports scipy, not even inside a function.
    proc = run_python_process(
        "import json, sys; import wulffdrop.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
        [], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    src = os.path.dirname(wulffdrop.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                text = handle.read()
            assert not re.search(r"^\s*(import|from)\s+scipy\b", text, re.M), name


def test_release_gate_runs_alike_with_and_without_scipy(tmp_path):
    # The release gate, under warnings-as-errors as CI runs it, in two fresh
    # interpreters, one with scipy made unimportable.  Both pass without
    # loading numpy.ma (np.unique imports it, about 7 ms of start-up that
    # nothing here needs), and their summaries agree apart from timings.
    code = ("import sys; {block}from wulffdrop.cli import main; "
            "code = main(sys.argv[1:]); print('numpy.ma' in sys.modules); sys.exit(code)")

    def gate(block, report):
        return run_python_process(code.format(block=block),
                                  ["check", "--seed", "0", "--report", str(report)],
                                  timeout=300, PYTHONWARNINGS="error::RuntimeWarning")

    reports = [tmp_path / "summary.json", tmp_path / "summary-no-scipy.json"]
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(gate, ["", "sys.modules['scipy'] = None; "], reports))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False"
    first, again = (against_base.untimed(json.loads(r.read_text())) for r in reports)
    assert first == again


def test_solve_runs_with_scipy_blocked(tmp_path, tension_file):
    # With scipy made unimportable, a solve by both routes still runs to
    # completion.
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from wulffdrop.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = run_python_process(blocked, [
        "solve", "--tension", tension_file, "--omega=-0.5", "--mass", "1",
        "--method", "both", "--out-dir", str(tmp_path / "out")], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_direct_solve_near_the_pole_returns(tmp_path):
    # pnorm p = 1.5 at omega = -0.01: the initial guess asks for alpha one
    # ulp below the pole.
    path = tmp_path / "p15.json"
    path.write_text('{"N": 3, "phi": {"family": "pnorm", "p": 1.5}, '
                    '"h": {"family": "lp", "p": 2.0}}')
    proc = run_cli_process(
        ["solve", "--tension", str(path), "--method", "direct",
         "--omega=-0.01", "--mass", "1", "--out-dir", str(tmp_path / "out")],
        timeout=30)
    assert proc.returncode in (0, 3), proc.stderr


# phi documents at the edges of the parameter ranges, and where the closed
# forms overflow, with their contact coefficient (m = 1, slice norm l_2).
_FUZZ_PHI = [
    ("pnorm-p-inf", '{"family": "pnorm", "p": Infinity}', "-0.5"),
    ("weighted-c-inf", '{"family": "weighted", "c": Infinity}', "-0.5"),
    ("weighted-c-1e300", '{"family": "weighted", "c": 1e300}', "-0.5"),
    ("pnorm-p-1.0001", '{"family": "pnorm", "p": 1.0001}', "-0.5"),
    ("pnorm-p-1.01", '{"family": "pnorm", "p": 1.01}', "-0.5"),
    ("pnorm-p-1.05-omega-1e-7", '{"family": "pnorm", "p": 1.05}', "-1e-7"),
    ("pnorm-p-1.2", '{"family": "pnorm", "p": 1.2}', "-0.5"),
    ("pnorm-p-3", '{"family": "pnorm", "p": 3}', "-0.5"),
    ("pnorm-p-60", '{"family": "pnorm", "p": 60}', "-0.5"),
    ("pnorm-p-100", '{"family": "pnorm", "p": 100}', "-0.5"),
    ("pnorm-p-1000", '{"family": "pnorm", "p": 1000}', "-0.5"),
    ("pnorm-p-1e6", '{"family": "pnorm", "p": 1e6}', "-0.5"),
]
_FUZZ_CASES = [(name, method) for name, _, _ in _FUZZ_PHI
               for method in ("shoot", "direct")]


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """Every fuzz case solved in its own interpreter, two at a time; None
    marks a run that outlived its 20 s bound."""
    tmp = tmp_path_factory.mktemp("fuzz")
    omegas = {}
    for name, phi, omega in _FUZZ_PHI:
        (tmp / f"{name}.json").write_text(
            '{"N": 3, "phi": %s, "h": {"family": "lp", "p": 2.0}}' % phi)
        omegas[name] = omega

    def solve(case):
        name, method = case
        try:
            return run_cli_process(
                ["solve", "--tension", str(tmp / f"{name}.json"),
                 "--method", method, f"--omega={omegas[name]}", "--mass", "1",
                 "--out-dir", str(tmp / f"{name}-{method}")], timeout=20)
        except subprocess.TimeoutExpired:
            return None

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(_FUZZ_CASES, pool.map(solve, _FUZZ_CASES)))


@pytest.mark.parametrize("case", _FUZZ_CASES, ids="-".join)
def test_solve_fuzz_over_phi_documents_never_tracebacks(case, fuzz_runs):
    # A document is rejected when built (exit 2), fails in a solver
    # (exit 3, overflow included) or solves (exit 0): never a traceback.
    proc = fuzz_runs[case]
    assert proc is not None, "no exit within 20 s"
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        errors = [line for line in proc.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1, proc.stderr
