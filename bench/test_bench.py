"""Tests of the benchmark itself: python -m pytest bench"""

import json
import pathlib
import re

import numpy as np
import pytest

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, workloads.DEFAULT_SEED):
        assert workloads.WORKLOADS[workload](seed) == workloads.WORKLOADS[workload](seed)


@pytest.mark.parametrize("workload", ["battery", "random-sweep", "sign-change-mix"])
def test_seeded_workloads_change_with_the_seed(workload):
    assert workloads.WORKLOADS[workload](1) != workloads.WORKLOADS[workload](2)


def test_metric_and_workload_names():
    names = (
        list(run.PRINTED_UNITS) + list(run.PER_LAYER_UNITS)
        + [w["name"] for w in SPEC["workloads"]]
    )
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["unit"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.EXERCISED) == set(workloads.WORKLOADS)


def test_sign_change_inputs_follow_the_family_rules():
    lo, hi = workloads.MIX_S_BANDS[0][0], workloads.MIX_S_BANDS[-1][1]
    for seed in range(5):
        ops = workloads.sign_change_mix(seed)
        assert len(ops) == workloads.MIX_OPS
        for i, op in enumerate(ops):
            source, s = op.args
            assert source.count("(x") == 1 + i % 3 + 1  # roots plus the Gaussian
            assert any(a < s < b for a, b in workloads.MIX_S_BANDS) and lo < s < hi


def test_support_check_rejects_slow_decay():
    workloads._check_support(1.0, [0.0], 0.5, 0.0)
    with pytest.raises(RuntimeError):
        workloads._check_support(1.0, [0.0], 0.01, 0.0)


def test_import_split_nests_by_indent():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:       100 |        200 |   fraclab.grid",
        "import time:         5 |          5 |   numpy",
        "import time:        50 |        400 | fraclab",
    ])
    split = run.import_split(text)
    assert split == pytest.approx({"fraclab": 150e-6, "scipy": 30e-6, "numpy": 5e-6})


def test_quantile_interpolates():
    vals = list(np.arange(11.0))
    assert run.quantile(vals, 0.9) == pytest.approx(9.0)
    assert run.quantile([2.5], 0.9) == 2.5
