"""Command-line interface tests: `main(argv)` runs in this process, on
small grids."""

import contextlib
import io
import json
import re
import warnings
from typing import NamedTuple

import pytest

from fraclab.cli import BODIES, main
from helpers import child


class Result(NamedTuple):
    exit_code: int
    out: str
    err: str


def invoke(args):
    """Call main(args) and capture its stdout, stderr and exit status; the
    CLI always ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError(f"main({args}) returned without exiting")
    return Result(0 if code is None else code, out.getvalue(), err.getvalue())


def test_constants_prints_full_precision():
    res = invoke(["constants", "--n", "1", "--s", "0.5"])
    assert res.exit_code == 0
    assert res.out.strip() == "C(1, 0.5) = 0.3183098861837907"


def test_constants_rejects_integer_order():
    res = invoke(["constants", "--s", "1.0"])
    assert res.exit_code == 2
    assert "validation error" in res.err


def test_identity_runs_and_writes_report(tmp_path):
    out = tmp_path / "identity.json"
    res = invoke(
        ["identity", "--s", "1.25", "--N", "4096", "--out", str(out)],
    )
    assert res.exit_code == 0, res
    assert "pass" in res.out
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "identity"
    assert doc["params"]["s"] == 1.25
    assert doc["params"]["N"] == 4096
    assert all(v["status"] != "fail" for v in doc["verdicts"])


def test_unwritable_report_path_exits_1_without_traceback(tmp_path):
    # a link into a missing directory passes the check before the run, as
    # its own directory exists, and fails only when the report is written
    out = tmp_path / "identity.json"
    out.symlink_to(tmp_path / "missing" / "identity.json")
    res = invoke(["identity", "--N", "4096", "--out", str(out)])
    assert res.exit_code == 1, res
    last = res.err.splitlines()[-1]
    assert last.startswith(f"experiment failure: cannot write report to {out}")


def test_allocation_failure_exits_1_without_traceback():
    # the child caps its own address space at 4 GiB, so the 8 TiB node
    # axis of 2^40 nodes cannot be allocated
    res = child(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from fraclab.cli import main\n"
        "main(['identity', '--N', str(2**40)])\n"
    )
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("experiment failure: Unable to allocate")
    assert res.stderr.count("\n") == 1


def test_identity_rejects_out_of_range_order():
    res = invoke(["identity", "--s", "2.0", "--N", "4096"])
    assert res.exit_code == 2


def test_identity_failing_tolerance_exits_one():
    res = invoke(
        ["identity", "--s", "1.25", "--N", "4096", "--tol", "1e-9"]
    )
    assert res.exit_code == 1
    assert "fail" in res.out


def test_config_file_supplies_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 2.0, "N": 4096}))
    # config alone would fail validation (s = 2), but the flag overrides it
    res = invoke(
        ["identity", "--config", str(cfg), "--s", "1.25"]
    )
    assert res.exit_code == 0, res
    bad = invoke(["identity", "--config", str(cfg)])
    assert bad.exit_code == 2


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    for command, key in (("identity", "nonsense"), ("sign-sweep", "tol")):
        cfg.write_text(json.dumps({key: 1e-3}))
        res = invoke([command, "--config", str(cfg), "--N", "4096"])
        assert res.exit_code == 2, (command, res)
        assert f"config key {key!r} is not a flag" in res.err


def test_config_list_values_reach_the_driver(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_list": [0.5, 1.25], "N": 4096}))
    out = tmp_path / "sweep.json"
    res = invoke(
        ["sign-sweep", "--config", str(cfg), "--out", str(out)]
    )
    assert res.exit_code == 0, res
    doc = json.loads(out.read_text())
    assert doc["params"]["s_list"] == [0.5, 1.25]
    assert doc["params"]["N"] == 4096


def test_config_rejects_config_path_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config_path": "other.json"}))
    res = invoke(["identity", "--config", str(cfg), "--N", "4096"])
    assert res.exit_code == 2
    assert "config_path" in res.err


def test_config_values_are_type_checked_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a value the flag would accept is converted, as on the command line
    cfg.write_text(json.dumps({"N": "4096"}))
    out = tmp_path / "identity.json"
    res = invoke(["identity", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res
    assert json.loads(out.read_text())["params"]["N"] == 4096
    # one it would reject is a usage error, not a traceback
    for command, bad in (
        ("identity", {"s": "abc"}),
        ("identity", {"tol": [1e-3]}),
        ("identity", {"tol": None}),
        ("identity", {"extrapolate": "maybe"}),
        ("sign-sweep", {"s_list": 0.5}),
        ("sign-sweep", {"s_list": [0.5, [1.25]]}),
    ):
        cfg.write_text(json.dumps(bad))
        res = invoke([command, "--config", str(cfg), "--N", "1024"])
        assert res.exit_code == 2, (bad, res)
        assert ": error: config " in res.err


def test_csv_report_format(tmp_path):
    out = tmp_path / "identity.csv"
    res = invoke(
        [
            "identity",
            "--s", "1.25",
            "--N", "4096",
            "--out", str(out),
            "--format", "csv",
        ],
    )
    assert res.exit_code == 0, res
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,quantity,")
    assert all(line.startswith("identity,") for line in lines[1:])


def test_sign_sweep_with_probe_orders():
    res = invoke(
        ["sign-sweep", "--N", "4096", "--s", "0.5", "--s", "1.25", "--s", "1.75"],
    )
    assert res.exit_code == 0, res
    assert "inconclusive" in res.out


def test_counterexample_defaults():
    # default cutoffs reach 1280, which needs the default 16384-node grid
    res = invoke(["counterexample"])
    assert res.exit_code == 0, res


def test_truncation_bound_runs():
    res = invoke(
        [
            "truncation-bound",
            "--N", "4096",
            "--eps", "0.04", "--eps", "0.02", "--eps", "0.01",
        ],
    )
    assert res.exit_code == 0, res


def test_truncation_bound_needs_two_eps_levels():
    res = invoke(["truncation-bound", "--N", "4096", "--eps", "0.1"])
    assert res.exit_code == 2, res
    assert "validation error" in res.err


def test_counterexample_rejects_nonpositive_cutoff():
    cutoffs = ["--cutoff", "-5", "--cutoff", "80", "--cutoff", "160", "--cutoff", "320"]
    res = invoke(["counterexample", "--N", "4096", *cutoffs])
    assert res.exit_code == 2, res
    assert "validation error" in res.err


def test_counterexample_refuses_a_root_that_is_not_simple():
    # x^3 has no kink at its triple root: its central difference reads 4
    # times as much at h = 2 Delta as at h = Delta, and no growth follows
    res = invoke(["counterexample", "--func", "x^3*exp(-x^2)"])
    assert res.exit_code == 2, res
    assert res.out == ""
    assert res.err == (
        "validation error: input must have a simple root at the origin: its "
        "central differences at h = Delta and 2 Delta are 5.960e-06 and "
        "2.384e-05\n"
    )
    # a simple root of any scale passes the same check
    cutoffs = ["--cutoff", "40", "--cutoff", "80", "--cutoff", "160", "--cutoff", "320"]
    res = invoke(
        ["counterexample", "--N", "4096", "--func", "1e-9*x*exp(-x^2)", *cutoffs]
    )
    assert res.exit_code == 0, res


@pytest.mark.parametrize(
    "args",
    [
        # every level is above max(u), so each shifted form is 0
        "truncation-bound --eps 5 --eps 6",
        # below the first nonzero shell pi/L, and all inside shell 1
        "counterexample --cutoff 0.001 --cutoff 0.002 --cutoff 0.003 --cutoff 0.004",
        "counterexample --cutoff 0.2 --cutoff 0.21 --cutoff 0.22 --cutoff 0.23",
    ],
)
def test_uninformative_levels_exit_2(args):
    cmd, *rest = args.split()
    res = invoke([cmd, "--N", "4096", *rest])
    assert res.exit_code == 2, res
    assert "validation error" in res.err


@pytest.mark.parametrize(
    "args",
    [
        "identity --N 4096 --tol -1",
        # a negative value with an exponent is a value, not a flag
        "identity --N 4096 --tol -1e-3",
        "identity --N 4096 --tol 0",
        "truncation-bound --N 4096 --tol nan",
        "convergence --N-list 1024 --N-list 2048 --N-list 4096 --tol 0",
    ],
)
def test_nonpositive_or_nan_tolerance_exits_2(args):
    res = invoke(args.split())
    assert res.exit_code == 2, res
    assert "tolerance must be positive" in res.err


def test_sign_sweep_has_no_tolerance_flag():
    # its verdicts are gated on the error estimates alone
    res = invoke(["sign-sweep", "--N", "1024", "--tol", "1e-3"])
    assert res.exit_code == 2, res
    assert "unrecognized arguments: --tol 1e-3" in res.err
    assert "--tol" not in invoke(["sign-sweep", "--help"]).out


@pytest.mark.parametrize(
    "args",
    [
        "constants --n 400 --s 0.5",
        # 2^(2s) overflows before either Gamma factor is taken
        "constants --s 10000000000.5",
        # the products overflow to inf and -inf with finite factors
        "constants --s 100.5",
        "constants --s 165.5",
        "identity --L 1e-100 --N 1024",
        "identity --L 1e-300 --N 1024",
        "interp --count 1 --seed -1 --N 1024",
        "truncation-bound --N 1024 --eps 0.01 --eps 1e-300",
        "truncation-bound --N 1024 --eps 0.01 --eps 1e-200",
        "truncation-bound --N 1024 --eps 0.01 --eps 1e160",
        # a NaN last cutoff fails every comparison
        "counterexample --N 4096 --cutoff 80 --cutoff 160 --cutoff 320 --cutoff nan",
        "truncation-bound --N 1024 --eps nan --eps 0.1",
        "truncation-bound --N 1024 --eps 0.1 --eps inf",
        # an infinite box has an infinite node spacing
        "identity --L inf --N 1024",
        # single-signed input has no sign change, so its cross form and
        # defect are 0; abs(x) is refused before the support rule is checked
        "identity --func abs(x) --N 1024",
        "identity --func exp(-x^2) --N 1024",
        "identity --func -exp(-x^2) --N 1024",
        "sign-sweep --func -exp(-x^2) --N 1024 --s 0.5",
        # a grid refuses fewer than 8 nodes, which the endpoint stencil and
        # the scan's root check need
        "counterexample --N 4 --L 0.5 --cutoff 1 --cutoff 2 --cutoff 3 --cutoff 4",
        # the forms of so large an input leave the double range, which is
        # refused before the kernel route runs
        "identity --func 1e154*x*exp(-x^2) --N 1024",
        "truncation-bound --func 1e154*x*exp(-x^2) --N 1024 --eps 2e153 --eps 1e153",
        "convergence --func 1e154*x*exp(-x^2) --N-list 256 --N-list 512 "
        "--N-list 1024",
        "sign-sweep --func 1e154*x*exp(-x^2) --N 1024 --s 1.25 --s 1.6",
    ],
)
def test_out_of_range_values_exit_2_without_traceback(args):
    # the suite turns numpy's RuntimeWarning into an error, so a leaked
    # overflow warning fails here too
    res = invoke(args.split())
    assert res.exit_code == 2, res
    assert res.out == ""
    (line,) = res.err.splitlines()
    assert line.startswith("validation error:")
    if "--N 4 " in args:
        # refused for its grid alone, whatever its L and cutoffs
        assert line.endswith("got N=4")
        return
    if "--L" in args:
        assert "L is too small" in line or "L=" in line
    if "--eps" in args and ("nan" in args or "inf" in args):
        assert "eps levels must be finite, got" in line
    if "--cutoff" in args:
        assert line.endswith("cutoffs must be positive and finite")
    if "1e160" in args:
        assert line.endswith("eps level 1e+160 is too large: its square overflows")
    if "10000000000.5" in args:
        assert line.endswith("C(1, 1e+10) exceeds the double-precision range")
    for s in ("100.5", "165.5"):
        if f"--s {s}" in args:
            assert line.endswith(f"C(1, {s}) exceeds the double-precision range")
    if "1e154" in args:
        assert "overflows the double range: its value is" in line
    elif "--func" in args:
        assert line.startswith("validation error: no sign change, so ")


def test_sign_sweep_far_above_three_halves_is_non_finite_without_warnings():
    res = invoke(["sign-sweep", "--s", "95.5", "--N", "1024"])
    assert res.exit_code == 0, res
    assert "defect is non-finite" in res.out
    assert "Warning" not in res.out + res.err


@pytest.mark.parametrize(
    "args, verdicts",
    [
        # the multiplier overflows at s = 100.5, and inf - inf is NaN
        ("sign-sweep --s 100.5 --N 1024", ["INCONCLUSIVE"]),
        ("counterexample --s 1.3 --s 100.5", ["PASS", "INCONCLUSIVE"]),
        # the octave increments of a tiny input underflow to 0
        (
            "counterexample --func 1e-200*x*exp(-x^2) --s 1.3 --s 1.6",
            ["INCONCLUSIVE", "INCONCLUSIVE"],
        ),
    ],
)
def test_undecidable_orders_are_inconclusive_without_warnings(args, verdicts):
    # the suite turns numpy's RuntimeWarning into an error
    res = invoke(args.split())
    assert res.exit_code == 0, res
    assert res.err == ""
    lines = [line for line in res.out.splitlines() if line.startswith("[")]
    assert [line[1:].split("]")[0] for line in lines] == verdicts
    if args.startswith("counterexample"):
        cause = "underflow" if "1e-200" in args else "overflow"
        detail = (
            f"the partial sums {cause}: fewer than two octave increments are "
            f"finite and nonzero"
        )
        assert all(line.endswith(detail) for line in lines if "INCONCLUSIVE" in line)


@pytest.mark.parametrize(
    "args",
    [
        # the deepest nodes of two regions round onto their shared crossing,
        # so |x - y|^(-1-2s) divides by 0
        "convergence --func x*exp(-x^2)*cos(40*x) --s 0.999 --N-list 256 "
        "--N-list 512 --N-list 1024",
        # the block sums overflow, while the cross form is finite
        "identity --func 1e153*sin(3*x)*exp(-x^2) --N 1024",
        "identity --func 1e153*(x-0.3)*exp(-x^2) --N 1024",
    ],
)
def test_kernel_route_raises_without_warnings(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(args.split())
    assert res.exit_code == 1, res
    (line,) = res.err.splitlines()
    assert re.fullmatch(
        r"experiment failure: pair tolerance \S+ not reached at depth 48 "
        r"\(last estimate \S+\)",
        line,
    ), line
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "args, where",
    [
        ("identity --N 1024", "at relative tolerance 0.001"),
        ("convergence --N-list 1024 --N-list 2048 --N-list 4096", "at N=1024"),
    ],
)
def test_underflowed_cross_form_exits_2(args, where):
    # a sign change makes the cross form nonzero, so 0 means underflow
    res = invoke([*args.split(), "--func", "1e-170*x*exp(-x^2)"])
    assert res.exit_code == 2, res
    assert res.out == ""
    assert res.err.splitlines() == [
        f"validation error: the cross form of u+ and u- {where} underflows to 0: "
        f"its value is 0.000e+00"
    ]


def test_counterexample_empty_order_list_in_config_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"s_list": []}))
    res = invoke(["counterexample", "--config", str(cfg)])
    assert res.exit_code == 2, res
    assert "s list must be nonempty" in res.err


def test_interp_subcommand():
    res = invoke(["interp", "--count", "5", "--seed", "7", "--N", "4096"])
    assert res.exit_code == 0, res


def test_convergence_n_list_parsing():
    res = invoke(
        [
            "convergence",
            "--s", "1.25",
            "--N-list", "1024", "--N-list", "2048", "--N-list", "4096",
        ],
    )
    assert res.exit_code == 0, res
    bad = invoke(["convergence", "--N-list", "x"])
    assert bad.exit_code == 2


def test_help_lists_all_subcommands():
    res = invoke(["--help"])
    assert res.exit_code == 0
    for name in (
        "constants",
        "identity",
        "sign-sweep",
        "counterexample",
        "truncation-bound",
        "interp",
        "convergence",
    ):
        assert name in res.out


def test_help_lists_each_flag_with_its_default():
    text = " ".join(invoke(["identity", "--help"]).out.split())
    for flag, default in (
        ("--func FUNC", "x*exp(-x^2)"),
        ("--s S", "1.25"),
        ("--tol TOL", "0.001"),
        ("--extrapolate, --no-extrapolate", "True"),
        ("--L L", "20.0"),
        ("--N N", "16384"),
        ("--format FMT", "json"),
    ):
        pattern = rf"{re.escape(flag)} [^[]*\[default: {re.escape(default)}\]"
        assert re.search(pattern, text), flag
    text = " ".join(invoke(["sign-sweep", "--help"]).out.split())
    assert "--s S_LIST [default: 0.25, 0.5, 0.75, 1.1, 1.25, 1.4]" in text
    text = " ".join(invoke(["constants", "--help"]).out.split())
    assert "--n N [default: 1] --s S Fractional order. [required]" in text


@pytest.mark.parametrize(
    "args",
    [
        "",
        "no-such-command",
        # a flag is never abbreviated: --ext is not --extrapolate
        "identity --ext --N 1024",
    ],
)
def test_usage_errors_exit_2(args):
    assert invoke(args.split()).exit_code == 2


def test_repeated_flag_replaces_its_default_list(tmp_path):
    out = tmp_path / "sweep.json"
    res = invoke(
        ["sign-sweep", "--N", "1024", "--s", "0.5", "--s", "1.75", "--out", str(out)]
    )
    assert res.exit_code == 0, res
    assert json.loads(out.read_text())["params"]["s_list"] == [0.5, 1.75]


def test_config_false_turns_extrapolation_off_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"extrapolate": False}))
    out = tmp_path / "identity.json"
    docs = []
    for args in (["--no-extrapolate"], ["--config", str(cfg)]):
        res = invoke(["identity", "--N", "1024", "--out", str(out), *args])
        assert res.exit_code == 1, res  # N = 1024 misses the tolerance
        doc = json.loads(out.read_text())
        del doc["runtime_seconds"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["params"]["extrapolate"] is False


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"N": 1024', "cannot read config"),
        (b'{"N": "\xff"}', "cannot read config"),  # not UTF-8
        (b"[1024]", "must hold a JSON object"),
    ],
)
def test_unreadable_config_exits_2(tmp_path, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    res = invoke(["identity", "--config", str(cfg)])
    assert res.exit_code == 2, res
    assert message in res.err


def test_directory_report_path_or_missing_config_exits_2(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"out": ""}')
    missing = tmp_path / "missing"
    nodir = tmp_path / "nodir.json"
    nodir.write_text(json.dumps({"out": str(missing / "r.json")}))
    for args, error in (
        (["--out", str(tmp_path)], "is a directory"),
        # the run would print its report and then fail to write it
        (["--out", str(missing / "r.json")], f"directory {str(missing)!r} does not exist"),
        (["--config", str(nodir)], f"directory {str(missing)!r} does not exist"),
        (["--config", str(tmp_path / "no.json")], "no.json"),
        # an empty path would run the experiment and write no report
        (["--out", ""], "argument --out: the report path is empty"),
        (["--config", str(empty)], "'out': the report path is empty"),
    ):
        res = invoke(["identity", "--N", "1024", *args])
        assert res.exit_code == 2, (args, res)
        assert res.out == ""
        assert error in res.err.splitlines()[-1], (args, res.err)


@pytest.mark.parametrize(
    "args",
    [
        # a positive input has no u- and a cross form of 0
        '--func exp(-x^2)',
        # no kernel route above 3/2 or at an integer order
        "--s 1.7",
        "--s 1.0",
    ],
)
def test_convergence_without_cross_form_exits_2(args):
    grid = ["--N-list", "1024", "--N-list", "2048", "--N-list", "4096"]
    res = invoke(["convergence", *grid, *args.split()])
    assert res.exit_code == 2, res
    assert "validation error" in res.err


TINY = [f"--N {N} --L {L}" for N in (4, 8, 16, 32, 64, 128) for L in (0.5, 5, 20)]
TINY_GRIDS = {
    **dict.fromkeys(("identity", "sign-sweep", "truncation-bound", "interp"), TINY),
    "counterexample": [
        f"{grid} --cutoff 1 --cutoff 2 --cutoff 3 --cutoff 4" for grid in TINY
    ],
    "convergence": [
        f"--N-list {a} --N-list {b} --N-list {c} --L {L}"
        for a, b, c in ((4, 8, 16), (8, 16, 32), (64, 128, 256))
        for L in (0.5, 5, 20)
    ],
}


@pytest.mark.parametrize("command", sorted(TINY_GRIDS))
def test_tiny_grids_end_in_an_exit_status(command):
    # every experiment on grids of 4 to 256 nodes ends in an exit status;
    # an exception or a leaked RuntimeWarning would escape invoke
    for args in TINY_GRIDS[command]:
        res = invoke([command, *args.split()])
        assert res.exit_code in (0, 1, 2), (args, res)


SMALL_RUNS = {
    "identity": "--N 4096",
    "sign-sweep": "--N 4096 --s 0.5 --s 1.25",
    "counterexample": "--N 4096 --cutoff 40 --cutoff 80 --cutoff 160 --cutoff 320",
    "truncation-bound": "--N 4096 --eps 0.04 --eps 0.02 --eps 0.01",
    "interp": "--N 4096 --count 5",
    "convergence": "--N-list 1024 --N-list 2048 --N-list 4096",
}
CSV_HEADER = (
    "experiment,quantity,spectral_value,kernel_value,discrepancy,"
    "spectral_error,kernel_error"
)


def test_smoke_tables_cover_every_experiment():
    # a new subcommand needs its rows in both tables
    assert set(TINY_GRIDS) == set(BODIES)
    assert set(SMALL_RUNS) == set(BODIES)


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_experiment_writes_json_and_csv(tmp_path, command):
    args = [command, *SMALL_RUNS[command].split()]
    out = tmp_path / "report.json"
    res = invoke([*args, "--out", str(out)])
    assert res.exit_code == 0, res
    assert json.loads(out.read_text())["experiment"] == command
    out = tmp_path / "report.csv"
    res = invoke([*args, "--out", str(out), "--format", "csv"])
    assert res.exit_code == 0, res
    header, *rows = out.read_text().splitlines()
    assert header == CSV_HEADER
    assert rows and all(row.startswith(f"{command},") for row in rows)


CONSOLE = {
    "identity --N 1024": (
        1,
        """\
  cross form of u+ against u-: spectral=0.3024012439947202 kernel=0.25745769951823216 discrepancy=0.14862222087046942
  defect of the modulus form: spectral=1.120656950299024 kernel=1.0298307980729287 discrepancy=0.08104723948025333
  interface interaction integral: spectral=0.4042706711897352 kernel=0.34418706620472145 discrepancy=0.14862222087046945
[FAIL] spectral and kernel cross forms agree :: relative discrepancy 1.486222e-01 vs tolerance 1.0e-03
[INCONCLUSIVE] defect sign follows the kernel-constant sign law :: error estimates (2.09e-01, 1.53e-04) exceed a tenth of |defect| = 1.12e+00
verdicts: 0 pass, 1 fail, 1 inconclusive (runtime #s)
""",
    ),
    "sign-sweep --N 1024 --s 0.5 --s 1.75": (
        0,
        """\
  defect at s=0.5: spectral=-0.1817867634998147
  defect at s=1.75: spectral=19.08807179075554
[PASS] defect sign at s=0.5 is opposite to the kernel constant :: defect is negative, kernel constant is positive
[INCONCLUSIVE] defect sign at s=1.75 is opposite to the kernel constant :: partial sums diverge; the form is outside H^s
verdicts: 1 pass, 0 fail, 1 inconclusive (runtime #s)
""",
    ),
    "convergence --N-list 1024 --N-list 2048 --N-list 4096": (
        0,
        """\
  cross form at N=1024: spectral=0.3024012439947202 kernel=0.2574709051153744 discrepancy=0.14857855174739376
  cross form at N=2048: spectral=0.2552380223310342 kernel=0.2578149943752116 discrepancy=0.009995431221610769
  cross form at N=4096: spectral=0.25785874003924475 kernel=0.25789476457982646 discrepancy=0.0001396869790684067
  observed spectral order between N=2048 and N=4096: spectral=4.169628403868237
  observed kernel order between N=2048 and N=4096: spectral=2.1088609778738365
  richardson limit of the kernel route: spectral=0.25791883883939487
[PASS] resolution study converges monotonically :: kernel differences decrease; last observed order 2.109
[PASS] routes agree at the finest resolution :: relative discrepancy 1.396870e-04 vs tolerance 1.0e-03
verdicts: 2 pass, 0 fail, 0 inconclusive (runtime #s)
""",
    ),
}


@pytest.mark.parametrize("args", sorted(CONSOLE))
def test_console_output_is_pinned(args):
    # every printed line, with the wall time masked
    code, expected = CONSOLE[args]
    res = invoke(args.split())
    assert res.exit_code == code, res
    assert re.sub(r"\(runtime [0-9.]+s\)", "(runtime #s)", res.out) == expected
    assert res.err == ""
