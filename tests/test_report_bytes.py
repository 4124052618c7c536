"""Golden bytes: the six experiment drivers on small inputs.

Each report is serialized with its wall time zeroed and compared by sha256
against a digest recorded from a known-good commit. A refactor that moves
any reported number, string or parameter by one bit fails here. The
digests belong to one numpy/scipy build; a different FFT or zeta backend
may move last bits, and then they are re-recorded from a known-good commit
on that build.
"""

import dataclasses
import hashlib

import pytest

from fraclab.experiments import (
    convergence_study,
    counterexample_scan,
    interp_sweep,
    sign_sweep,
    truncation_bound_probe,
    verify_identity,
)
from fraclab.grid import GridSpec
from fraclab.reports import report_to_json

SPEC = GridSpec(1, 20.0, 4096)
SOURCE = "x*exp(-x^2)"

DRIVERS = {
    "identity": lambda: verify_identity(SOURCE, 1.25, spec=SPEC),
    "sign-sweep": lambda: sign_sweep(
        SOURCE, [0.25, 0.5, 0.75, 1.1, 1.25, 1.4], spec=SPEC
    ),
    "counterexample": lambda: counterexample_scan(
        SOURCE, [1.3, 1.4, 1.6, 1.7], [40.0, 80.0, 160.0, 320.0], spec=SPEC
    ),
    "truncation-bound": lambda: truncation_bound_probe(
        SOURCE, 1.25, [0.2, 0.1, 0.05, 0.02, 0.01], spec=SPEC
    ),
    "interp": lambda: interp_sweep(5, seed=0, spec=SPEC),
    "convergence": lambda: convergence_study(SOURCE, 1.25, [1024, 2048, 4096]),
}

DIGESTS = {
    "identity": "b9db2f531db5edc4675dbffceebc004b992366befc7c530919b1214ccde55b73",
    "sign-sweep": "cb3f167250db10282a7cee69cf4520ad3dde0a09918d4697eeaf9636c24de6e6",
    "counterexample": "ef03855ae933291a7204f85378e574cdcd03e9350364dc268072c7f64c3faa63",
    "truncation-bound": "8fa9103e8150324977bb5fc40cc98a53296dc7012cb581de2d5198733e0603fc",
    "interp": "cd935c6996117bd3ceb4b95f93247267fa8c87f01c41ded51ca9bfb845cfa994",
    "convergence": "1e908cd7c18c8c099d372c50da4a5744f79cf6d19ac6150e00b6fe4d97e1e363",
}


def frozen_digest(report) -> str:
    text = report_to_json(dataclasses.replace(report, runtime_seconds=0.0))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_report_bytes_unchanged(name):
    assert frozen_digest(DRIVERS[name]()) == DIGESTS[name]
