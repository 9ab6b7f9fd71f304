"""tools/against_base.py, the report-only comparison of two source trees:
its verdicts, timing-field rule, table cells and section isolation."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("against_base",
                                               ROOT / "tools" / "against_base.py")
against_base = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(against_base)


def write_pair(tmp_path, name, base, head):
    for side, text in (("base", base), ("head", head)):
        if text is not None:
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / name).write_text(text)


@pytest.mark.parametrize("name,base,head,expected", [
    ("p.csv", "t,r\n0,1\n1,0\n", "t,r\n0,1\n1,0\n", "identical"),
    ("p.csv", "t,r\n0,2\n1,0\n", "t,r\n0,1\n1,0\n",
     "**differs** (max \\|Δr\\| / max r = 5.00e-01)"),
    ("p.csv", "t,r\n0,1\n1,0\n", "t,r\n0,1\n0.5,0.5\n1,0\n", "**differs** (2 vs 3 knots)"),
    ("p.svg", "<svg/>", "<svg />", "**differs**"),
    ("p.stdout", "PASS\n", None, "missing"),
    ("p.json", None, "{}", "missing"),
])
def test_verdicts(tmp_path, name, base, head, expected):
    write_pair(tmp_path, name, base, head)
    assert against_base.verdict(str(tmp_path), name) == expected


def test_json_that_differs_only_in_timing_fields_is_identical(tmp_path):
    report = {"suites": {"young": {"passed": True,
                                   "details": {"seconds": 0.1, "case_seconds": {"a": 1.0},
                                               "rows": [{"wall_time_s": 2.0, "v": 1}]}}}}
    moved = json.loads(json.dumps(report))
    moved["suites"]["young"]["details"].update(seconds=0.2, case_seconds={"a": 3.0})
    moved["suites"]["young"]["details"]["rows"][0]["wall_time_s"] = 4.0
    write_pair(tmp_path, "r.json", json.dumps(report), json.dumps(moved))
    assert against_base.verdict(str(tmp_path), "r.json") == "identical"
    moved["suites"]["young"]["details"]["rows"][0]["v"] = 2
    write_pair(tmp_path, "r.json", json.dumps(report), json.dumps(moved))
    assert against_base.verdict(str(tmp_path), "r.json") == (
        "**differs** (max \\|Δx\\| / \\|x\\| over numbers = 1.00e+00 "
        "at suites.young.details.rows[0].v)")
    moved["suites"]["young"]["details"]["rows"][0]["w"] = 1
    write_pair(tmp_path, "r.json", json.dumps(report), json.dumps(moved))
    assert against_base.verdict(str(tmp_path), "r.json") == "**differs**"


@pytest.mark.parametrize("base,head,expected", [
    ({"a": [1.0, 2.0], "b": "x"}, {"a": [1.0, 2.0], "b": "x"}, (0.0, "a[0]")),
    ({"a": [1.0, 4.0], "b": 8}, {"a": [1.0, 5.0], "b": 7}, (0.25, "a[1]")),
    ([1e-300, 3.0], [1e-300, 3.0 + 3e-15], (1e-15, "[1]")),
    ([0.0], [1e-300], (float("inf"), "[0]")),
    ([float("nan"), 1.0], [float("nan"), 1.0], (0.0, "[0]")),
    ([1.0], [float("nan")], (float("inf"), "[0]")),
    ({"a": 1.0}, {"b": 1.0}, None),
    ([1.0], [1.0, 2.0], None),
    ({"a": "x"}, {"a": "y"}, None),
    ({"repairs": [{"sigma": 2.0}, {"sigma": 1.0, "tau": 3.0}], "e": 5.0},
     {"repairs": [{"sigma": 2.0}, {"sigma": 1.5, "tau": 3.0}], "e": 5.5},
     (0.5, "repairs[1].sigma")),
    ([], [], (0.0, "")),
])
def test_json_gap_is_the_largest_relative_difference_of_the_numbers(base, head,
                                                                    expected):
    # The gap comes with the key path of the leaf that has it.
    gap = against_base.json_gap(base, head)
    if expected is None:
        assert gap is None
    else:
        assert gap[0] == pytest.approx(expected[0]) and gap[1] == expected[1]


def test_repairs_table_reports_geometry_and_energy_drops_apart(monkeypatch):
    runs = {"base": [3, "abc", [0.5, None, 0.25], [[0.1, 0.4], None, [-0.2, 0.7]], 1.0],
            "head": [3, "abc", [0.5, None, 0.25 + 2.0 ** -52],
                     [[0.1 + 3e-9, 0.4], None, [-0.2, 0.7 - 2e-12]], 2.0]}
    monkeypatch.setattr(against_base, "probe", lambda tree, fn: runs[tree])
    rows = list(against_base.competitor_repairs([("base", "base"), ("head", "head")]))
    assert rows[2:] == ["| base | 3 | `abc` |  |  | 1.000 |",
                        "| head | 3 | `abc` | 3.0e-09, 2.0e-12 | **differs** (1 of 3 moved, "
                        "max \\|Δ\\| = 2.2e-16) | 2.000 |"]
    assert against_base.params_against([[0.1, 0.4]], None) == "no base commit"
    assert against_base.params_against([None, [0.1, 0.4]], [[0.1, 0.4], None]) == (
        "no common repairs")
    assert against_base.drops_against([0.5, None], [0.5, None]) == "identical"
    assert against_base.drops_against([0.5, 0.1], [0.5, None]) == (
        "**differs** (other repairs made)")
    assert against_base.drops_against([0.5], None) == "no base commit"


def test_shoot_table_reports_ode_solves_and_interpolant_rows(monkeypatch):
    # Exact work counts sit beside the seconds, which cannot resolve them.
    history = [["0x1.0p+0", "0x1.8p+0"]]
    runs = {"base": [[5, 6], 2e-8, 1, 0.5, [history, history], 11, 157],
            "head": [[5, 6], 2e-8, 1, 0.4, [history, history], 11, 64]}
    monkeypatch.setattr(against_base, "probe", lambda tree, fn: runs[tree])
    rows = list(against_base.shoot_convergence([("base", "base"), ("head", "head")]))
    assert "| ODE solves | interpolant rows |" in rows[0]
    columns = {row.count("|") - row.count("\\|") for row in rows}
    assert columns == {11}
    assert rows[2:] == ["| base | 2 | 5.50 | 6 | 2.0e-08 | 1 | 11 | 157 | 0.500 |  |",
                        "| head | 2 | 5.50 | 6 | 2.0e-08 | 1 | 11 | 64 | 0.400 | identical |"]


def test_untimed_drops_every_timing_field():
    assert against_base.TIMED == ("wall_time_s", "seconds", "case_seconds")
    assert against_base.untimed({"seconds": 1, "a": [{"wall_time_s": 2, "b": 3}],
                                 "c": {"case_seconds": {}}}) == {"a": [{"b": 3}], "c": {}}


def test_cells_escape_bars_and_newlines():
    assert against_base.cell("  a | b\nc\n") == "a \\| b<br>c"
    assert against_base.cell("\n") == "(none)"


def test_a_failing_section_prints_its_error_and_the_others_still_print(monkeypatch,
                                                                      capsys):
    def table(title):
        def section(trees):
            yield f"| {title} | {', '.join(side for side, _ in trees)} |"
        return section

    def failing(trees):
        yield "| shoots |"
        raise RuntimeError("probe exited 1: boom | bang")

    for name in ("cli_outputs", "start_up", "competitor_repairs"):
        monkeypatch.setattr(against_base, name, table(name))
    monkeypatch.setattr(against_base, "shoot_convergence", failing)
    assert against_base.main("head-tree", "base-tree") == 1
    assert capsys.readouterr().out.split("\n\n") == [
        "| cli_outputs | base, head |", "| start_up | base, head |",
        "| shoots |\n| **error** | RuntimeError: probe exited 1: boom \\| bang |",
        "| competitor_repairs | base, head |", ""]
    monkeypatch.setattr(against_base, "shoot_convergence", table("shoot_convergence"))
    assert against_base.main("head-tree") == 0
    assert "| start_up | head |\n\n| shoot_convergence | head |" in capsys.readouterr().out


def wulffdrop_file():
    import wulffdrop
    return wulffdrop.__file__


def crash():
    raise ValueError("no such cell")


def test_a_probe_runs_on_its_tree_in_a_fresh_interpreter(monkeypatch, tmp_path):
    path = against_base.probe(str(ROOT), wulffdrop_file)
    assert Path(path) == ROOT / "src" / "wulffdrop" / "__init__.py"
    # A relative tree holds for a run in another directory, as the CLI's are.
    monkeypatch.chdir(ROOT)
    proc = against_base.run(".", ["-c", "import wulffdrop; print(wulffdrop.__file__)"],
                            cwd=tmp_path, capture_output=True)
    assert Path(proc.stdout.strip()) == ROOT / "src" / "wulffdrop" / "__init__.py"
    with pytest.raises(RuntimeError, match="crash exited 1: ValueError: no such cell"):
        against_base.probe(str(ROOT), crash)
