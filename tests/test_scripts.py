"""The scripts under scripts/ run end to end."""

import dataclasses
import importlib.util
import json
import pathlib
import re

import mpmath
import pytest

from fraclab.cli import BODIES
from fraclab.reports import ResultRecord

from helpers import SRC
from oracles import COMPACT_SOURCE, CROSS_FORM, TWO_CROSSING_SOURCE

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_full_battery_is_reproducible(tmp_path, capsys):
    assert _load("run_full_battery").main(["--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "kernel constant C(1, 0.5) = 0.3183098861837907" in out
    assert "bitwise reproducible: True" in out
    assert len(list(tmp_path.glob("*.json"))) == len(BODIES)


def test_cold_start_times_one_round_on_each_tree(capsys):
    src = str(SCRIPTS.parent / "src")
    script = _load("cold_start")
    assert script.main(["--rounds", "1", src, src, "constants", "--s", "0.5"]) == 0
    title, *rows = capsys.readouterr().out.splitlines()
    assert title == "constants --s 0.5: 1 alternated rounds"
    assert len(rows) == 2
    for row in rows:
        fields = re.fullmatch(
            r"  .+  median [\d.]+ s  quartiles [\d.]+-[\d.]+ s"
            r"  peak rss ([\d.]+) MiB  minor faults ([\d,]+)  exit 0",
            row,
        )
        assert fields, row
        # a Python process takes some MiB and some hundred faults to start
        assert float(fields[1]) > 1.0
        assert int(fields[2].replace(",", "")) > 100


def test_cold_start_fails_when_the_trees_exit_differently(tmp_path, capsys):
    # a tree whose fraclab exits 3 on import, so that an installed fraclab
    # cannot stand in for it, against src, whose command exits 0
    (tmp_path / "fraclab").mkdir()
    (tmp_path / "fraclab" / "__init__.py").write_text("raise SystemExit(3)\n")
    src = str(SCRIPTS.parent / "src")
    script = _load("cold_start")
    args = ["--rounds", "1", str(tmp_path), src, "constants", "--s", "0.5"]
    assert script.main(args) == 1
    *_, last = capsys.readouterr().out.splitlines()
    assert last == "the two trees exit with different statuses"


def _census(args, capsys):
    """The lines that census.main prints for args at 3 draws and 256 nodes."""
    assert _load("census").main(args + ["--draws", "3", "--N", "256"]) == 0
    return capsys.readouterr().out.splitlines()


def _check_table(lines, title):
    """lines are title, one row per order and scale, each counting the 3
    draws once, and a total of the 36 runs; returns the runs per exit."""
    head, *rows, total = lines
    assert head == title
    assert len(rows) == 12  # four orders times three scales
    for row in rows:
        fields = re.fullmatch(
            r"  s=\S+ +scale=\S+ +pass +(\d+)  fail +(\d+)  raise +(\d+)"
            r"  refused +(\d+)  lies +(\d+)(  \((.*)\))?",
            row,
        )
        assert fields, row
        counts = [int(fields[i]) for i in range(1, 5)]
        assert sum(counts) == 3, row
        # only a run that ends with a report can lie
        assert int(fields[5]) <= counts[0] + counts[1], row
        by_type = re.findall(r"(\w+) (\d+)", fields[7] or "")
        assert sum(int(n) for _, n in by_type) == counts[2], row
    exits = re.fullmatch(r"exit 0: (\d+), exit 1: (\d+), exit 2: (\d+) of 36 runs", total)
    assert exits, total
    assert sum(int(n) for n in exits.groups()) == 36
    return [int(n) for n in exits.groups()]


def test_census_counts_every_run_once(capsys):
    _check_table(_census([], capsys), "identity census: 3 draws, N=256, seed 2026")


@pytest.mark.parametrize("driver", ["sign-sweep", "truncation-bound", "convergence"])
def test_census_of_each_driver_counts_every_run_once(driver, capsys):
    title = f"{driver} census: 3 draws, N=256, seed 2026"
    _check_table(_census(["--driver", driver], capsys), title)


def test_census_of_all_drivers_prints_each_table_and_their_total(capsys):
    *lines, total = _census(["--driver", "all"], capsys)
    drivers = ["identity", "sign-sweep", "truncation-bound", "convergence"]
    assert len(lines) == 14 * len(drivers)
    exits = [
        _check_table(lines[14 * i : 14 * (i + 1)], f"{d} census: 3 draws, N=256, seed 2026")
        for i, d in enumerate(drivers)
    ]
    summed = [sum(column) for column in zip(*exits)]
    assert total == (
        f"all drivers: exit 0: {summed[0]}, exit 1: {summed[1]}, "
        f"exit 2: {summed[2]} of 144 runs"
    )


def test_census_json_holds_the_tables_of_all_drivers(capsys):
    lines = _census(["--driver", "all"], capsys)
    doc = json.loads("\n".join(_census(["--driver", "all", "--json"], capsys)))
    assert (doc["draws"], doc["N"], doc["seed"]) == (3, 256, 2026)
    assert list(doc["drivers"]) == ["identity", "sign-sweep", "truncation-bound", "convergence"]
    # the same counts as the printed tables, row for row
    printed = [line for line in lines if line.startswith("  s=")]
    rows = [row for table in doc["drivers"].values() for row in table["rows"]]
    assert len(rows) == len(printed) == 48
    for row, line in zip(rows, printed):
        raised = sum(row["raise"].values())
        assert line.split()[:12] == [
            f"s={row['s']:g}", f"scale={row['scale']}", "pass", str(row["pass"]),
            "fail", str(row["fail"]), "raise", str(raised),
            "refused", str(row["refused"]), "lies", str(row["lies"]),
        ]
    exits = {
        driver: [table["exits"][k] for k in "012"]
        for driver, table in doc["drivers"].items()
    }
    assert [doc["exits"][k] for k in "012"] == [sum(c) for c in zip(*exits.values())]
    assert lines[-1] == (
        "all drivers: exit 0: {0}, exit 1: {1}, exit 2: {2} of 144 runs".format(
            *(doc["exits"][k] for k in "012")
        )
    )


def test_census_of_the_same_tree_prints_two_equal_documents(capsys):
    args = ["--tree", str(SRC), "--driver", "all", "--json"]
    old, new = json.loads("\n".join(_census(args, capsys)))
    assert old["src"] == new["src"] == str(SRC)
    assert list(old["census"]["drivers"]) == list(_load("census").DRIVERS)
    assert old["census"] == new["census"]


def test_census_counts_an_estimate_that_lies():
    census = _load("census")
    record = ResultRecord("q", 1.0, kernel_value=1.5, spectral_error=0.3, kernel_error=0.1)
    assert census.lies(record)
    assert not census.lies(dataclasses.replace(record, kernel_error=0.2))
    # a record without both routes' estimates cannot lie
    assert not census.lies(dataclasses.replace(record, kernel_error=None))
    assert not census.lies(ResultRecord("q", 1.0, spectral_error=0.0))


def test_oracle_table_generates_exactly_the_recorded_values():
    script = _load("oracle_table")
    generated = {(case, s) for case in script.CASES for s in script.ORDERS}
    recorded = {(case, s) for case, row in CROSS_FORM.items() for s in row}
    assert generated == recorded


def test_oracle_table_reproduces_a_value_at_low_precision():
    # the full table takes about 70 s at 20 digits on two cores; one value
    # at 10 digits takes one or two seconds. The compact case runs the
    # branch for a positive interval of finite length.
    script = _load("oracle_table")
    for case in (TWO_CROSSING_SOURCE, COMPACT_SOURCE):
        with mpmath.workdps(10):
            value = float(script.cross_form(case, 1.25))
        assert value == pytest.approx(CROSS_FORM[case][1.25], rel=1e-8)


def _fake_tree(root, pass_s, correct=True, failed=0, bounds=None):
    """A tree whose bench/run.py notes its arguments in args.txt, from its
    own root, and prints bench/run.py's metric table, with a raw wall of
    twice the value for pass_s and none for peak_rss_mb, then one result
    line; its k-th run reads pass_s[k] when pass_s is a list, cycling.
    bounds, when given, go into its BENCHMARK.json as {metric: bound}."""
    (root / "bench").mkdir(parents=True)
    result = {
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {
            "pass_s": {"value": 0.0, "unit": "s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MiB"},
        },
    }
    values = pass_s if isinstance(pass_s, list) else [pass_s]
    (root / "bench" / "run.py").write_text(
        "import json, sys\n"
        "with open('args.txt', 'a+') as f:\n"
        "    f.seek(0)\n"
        "    k = len(f.readlines())\n"
        "    f.write(' '.join(sys.argv[1:]) + '\\n')\n"
        f"result = {result!r}\n"
        f"result['metrics']['pass_s']['value'] = {values!r}[k % {len(values)}]\n"
        "print('end-to-end metrics:')\n"
        "print('  metric  value unit  raw wall samples')\n"
        "value = result['metrics']['pass_s']['value']\n"
        "print(f'  pass_s  {value:.6g} s  {2 * value:.6g} n=3')\n"
        "print('  peak_rss_mb  50 MiB  n=3')\n"
        "print(json.dumps(result))\n"
    )
    if bounds is not None:
        metrics = [{"name": n, "bound": b} for n, b in bounds.items()]
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    return root


def test_bench_pairs_reports_medians_and_wins(tmp_path, capsys):
    old = _fake_tree(tmp_path / "old", 2.0)
    new = _fake_tree(tmp_path / "new", 1.5)
    script = _load("bench_pairs")
    args = [str(old), str(new), "--workload", "fine-grid", "--pairs", "2", "--seconds", "0.5"]
    assert script.main(args) == 0
    title, pass_s, rss = capsys.readouterr().out.splitlines()
    assert title == "fine-grid: 2 alternated pairs of 0.5 s runs"
    # each median is followed by the median of its raw wall seconds
    assert pass_s.split() == [
        "pass_s", "old", "2", "(2-2)", "raw", "4", "new", "1.5", "(1.5-1.5)", "raw", "3",
        "s", "-25.0%", "new", "wins", "2", "of", "2", "gain",
    ]
    # equal values win no pair and mark no gain; no raw wall, none shown
    assert rss.split() == [
        "peak_rss_mb", "old", "50", "(50-50)", "new", "50", "(50-50)", "MiB", "+0.0%",
        "new", "wins", "0", "of", "2",
    ]
    for tree in (old, new):
        assert (tree / "args.txt").read_text() == "--workload fine-grid --seconds 0.5\n" * 2


def test_bench_pairs_fails_on_an_incorrect_run_or_a_failed_op(tmp_path, capsys):
    script = _load("bench_pairs")
    old = _fake_tree(tmp_path / "old", 2.0)
    for name, kwargs, why in (
        ("wrong", {"correct": False}, "is not correct"),
        ("failing", {"failed": 1}, "failed ops"),
    ):
        new = _fake_tree(tmp_path / name, 1.0, **kwargs)
        args = [str(old), str(new), "--workload", "battery", "--pairs", "1"]
        assert script.main(args) == 1
        *_, last = capsys.readouterr().out.splitlines()
        assert last == f"a run in {new} {why}"
    # a run that exits before its result line, as bench/run.py does when
    # the tree has no sources
    silent = tmp_path / "silent"
    (silent / "bench").mkdir(parents=True)
    (silent / "bench" / "run.py").write_text("raise SystemExit(2)\n")
    assert script.main([str(old), str(silent), "--workload", "battery", "--pairs", "1"]) == 1
    *_, last = capsys.readouterr().out.splitlines()
    assert last == f"a run in {silent} printed no result line"


def test_bench_pairs_judges_metrics_against_the_old_trees_bounds(tmp_path, capsys):
    script = _load("bench_pairs")
    bounds = {"pass_s": 0.25, "peak_rss_mb": 0.1}

    def pairs(name, old_pass_s, new_pass_s):
        old = _fake_tree(tmp_path / name / "old", old_pass_s, bounds=bounds)
        new = _fake_tree(tmp_path / name / "new", new_pass_s)
        args = [str(old), str(new), "--workload", "battery", "--pairs", "4"]
        code = script.main(args)
        _, pass_s, rss, *rest = capsys.readouterr().out.splitlines()
        # the marks follow "new wins W of 4"
        return code, pass_s.split(" of 4")[1].split(), rss.split(" of 4")[1].split(), rest, old

    # 30% worse than the old median, against a bound of 25%
    code, pass_s, rss, rest, old = pairs("worse", 1.0, 1.3)
    assert (code, pass_s, rss) == (1, ["regression"], [])
    assert rest == [f"worse than the bound of {old}/BENCHMARK.json: pass_s"]
    # 20% worse stays within the bound
    assert pairs("within", 1.0, 1.2)[:3] == (0, [], [])
    # old runs of 1 and 2 s: quartiles 1-2 s, wider than a quarter of the
    # 1.5 s median, so an equal median is not resolved
    assert pairs("wide", [1.0, 2.0], 1.5)[:3] == (0, ["unresolved"], [])
    # unless every new run beats every old run
    assert pairs("clear", [1.0, 2.0], 0.5)[:3] == (0, [], [])
