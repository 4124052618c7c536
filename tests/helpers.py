"""Test helpers: a smooth unit-mass bump, the separated-support input of the
kernel and acceptance tests, the frequency axis of a spectrum, the oracle
axis of the spectral and de-aliasing tests, the bit patterns that
their bit-for-bit comparisons read, and a fresh interpreter for checks
of what a whole process loads or does."""

import os
import pathlib
import subprocess
import sys

import numpy as np

from fraclab.errors import DomainError
from fraclab.grid import GridFunction, GridSpec


def mollifier_bump(spec: GridSpec, center: float, radius: float) -> GridFunction:
    """Unit-mass smooth bump supported in |x - center| < radius."""
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    x = spec.axis_nodes()
    t = (x - center) / radius
    inside = np.abs(t) < 1.0
    vals = np.zeros_like(x)
    vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    mass = float(np.sum(vals)) * spec.delta
    if mass <= 0.0:
        raise DomainError("bump support does not contain any grid node")
    return GridFunction(spec, vals / mass)


def frequency_axis(spectrum) -> np.ndarray:
    """xi_k = k dxi in numpy's FFT order, k = 0 .. N/2 - 1 and then
    -N/2 .. -1, the layout of Spectrum.coeffs."""
    N = spectrum.spec.N
    return spectrum.delta_xi * np.fft.fftfreq(N, 1 / N)


def bits(a) -> np.ndarray:
    """The 64-bit patterns of a float or complex array, so that equality
    tells -0.0 from 0.0 and compares NaNs by payload."""
    return np.ascontiguousarray(a).view(np.uint64)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def child(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this tree's sources; its exit
    status, stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_child(code: str) -> str:
    """The stdout of child(code). Fails the test when the child exits
    non-zero."""
    res = child(code)
    assert res.returncode == 0, res.stderr
    return res.stdout
