"""fraclab: batch experiment runner.

Non-interactive by design: each subcommand validates its parameters,
runs one experiment, prints the verdict summary, optionally writes the
report (JSON or CSV), and exits 0 only when every verdict passed
(inconclusive records are counted but do not fail the run). Validation
and usage problems exit with status 2, runtime failures with status 1.
A single optional JSON config file may supply the same keys as the
flags; explicitly passed flags win.
"""

from __future__ import annotations

import json
import sys

import click
from click.core import ParameterSource

from . import experiments
from .errors import (
    DomainError,
    ExpressionError,
    FraclabError,
    SupportRuleError,
)
from .grid import GridSpec
from .reports import write_report
from .special import kernel_constant

_DEFAULT_FUNC = "x*exp(-x^2)"


@click.group()
def main():
    """Numerical experiments on sign-truncated fractional-order forms."""


def _grid_options(fn):
    fn = click.option(
        "--N",
        "N",
        type=int,
        default=16384,
        show_default=True,
        help="Grid nodes (power of two).",
    )(fn)
    fn = click.option(
        "--L",
        "L",
        type=float,
        default=20.0,
        show_default=True,
        help="Half-width of the sampling box.",
    )(fn)
    return fn


def _io_options(fn):
    fn = click.option(
        "--config",
        "config_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="JSON config file with the same keys as the flags; flags win.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Report file format.",
    )(fn)
    fn = click.option(
        "--out",
        "out",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Report output path.",
    )(fn)
    return fn


def _apply_config(ctx, params: dict) -> dict:
    """The subcommand's parameters, without config_path, with the config
    file's values overlaid onto defaulted ones (flags win)."""
    values = dict(params)
    config_path = values.pop("config_path")
    if not config_path:
        return values
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {config_path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {config_path} must hold a JSON object")
    for key, val in data.items():
        if key not in values:
            raise click.UsageError(
                f"config key {key!r} is not a flag of this subcommand"
            )
        if ctx.get_parameter_source(key) is ParameterSource.DEFAULT:
            values[key] = tuple(val) if isinstance(values[key], tuple) else val
    return values


def _echo_report(report) -> None:
    for rec in report.results:
        line = f"  {rec.quantity}: spectral={rec.spectral_value!r}"
        if rec.kernel_value is not None:
            line += f" kernel={rec.kernel_value!r}"
        if rec.discrepancy is not None:
            line += f" discrepancy={rec.discrepancy!r}"
        click.echo(line)
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for v in report.verdicts:
        counts[v.status] += 1
        click.echo(f"[{v.status.upper()}] {v.claim} :: {v.detail}")
    click.echo(
        f"verdicts: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['inconclusive']} inconclusive "
        f"(runtime {report.runtime_seconds:.2f}s)"
    )


def _finish(report, out, fmt) -> None:
    _echo_report(report)
    if out:
        write_report(report, out, fmt)
        click.echo(f"report written to {out}")
    if not report.all_pass:
        sys.exit(1)


def _run(builder):
    """Run an experiment builder with the exit-status contract."""
    try:
        return builder()
    except (DomainError, ExpressionError, SupportRuleError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except FraclabError as exc:
        click.echo(f"experiment failure: {exc}", err=True)
        sys.exit(1)


@main.command()
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--s", "s", type=float, required=True, help="Fractional order.")
def constants(n, s):
    """Print the kernel normalization constant for (n, s)."""
    value = _run(lambda: kernel_constant(n, s))
    click.echo(f"C({n}, {s:g}) = {value.value!r}")


@main.command()
@click.option("--func", "func", default=_DEFAULT_FUNC, show_default=True)
@click.option("--s", "s", type=float, default=1.25, show_default=True)
@click.option("--tol", "tol", type=float, default=1e-3, show_default=True)
@click.option(
    "--extrapolate/--no-extrapolate",
    "extrapolate",
    default=True,
    show_default=True,
    help="Extrapolate the frequency-cutoff tail of kinked integrands.",
)
@_grid_options
@_io_options
@click.pass_context
def identity(ctx, **params):
    """Cross-check the truncation identity spectrally and by quadrature."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.verify_identity(
            values["func"],
            values["s"],
            GridSpec(1, values["L"], values["N"]),
            tol=values["tol"],
            extrapolate=values["extrapolate"],
        )
    )
    _finish(report, values["out"], values["fmt"])


@main.command(name="sign-sweep")
@click.option("--func", "func", default=_DEFAULT_FUNC, show_default=True)
@click.option(
    "--s",
    "s_list",
    type=float,
    multiple=True,
    default=(0.25, 0.5, 0.75, 1.1, 1.25, 1.4),
    show_default=True,
)
@click.option("--tol", "tol", type=float, default=1e-3, show_default=True)
@_grid_options
@_io_options
@click.pass_context
def sign_sweep(ctx, **params):
    """Sign of the modulus-form defect across a list of orders."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.sign_sweep(
            values["func"],
            list(values["s_list"]),
            GridSpec(1, values["L"], values["N"]),
            tol=values["tol"],
        )
    )
    _finish(report, values["out"], values["fmt"])


@main.command()
@click.option("--func", "func", default=_DEFAULT_FUNC, show_default=True)
@click.option(
    "--s",
    "s_list",
    type=float,
    multiple=True,
    default=(1.3, 1.4, 1.6, 1.7),
    show_default=True,
)
@click.option(
    "--cutoff",
    "cutoffs",
    type=float,
    multiple=True,
    default=(80.0, 160.0, 320.0, 640.0, 1280.0),
    show_default=True,
)
@_grid_options
@_io_options
@click.pass_context
def counterexample(ctx, **params):
    """Partial-sum growth scan for kinked positive parts."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.counterexample_scan(
            values["func"],
            list(values["s_list"]),
            list(values["cutoffs"]),
            GridSpec(1, values["L"], values["N"]),
        )
    )
    _finish(report, values["out"], values["fmt"])


@main.command(name="truncation-bound")
@click.option("--func", "func", default=_DEFAULT_FUNC, show_default=True)
@click.option("--s", "s", type=float, default=1.25, show_default=True)
@click.option(
    "--eps",
    "eps_list",
    type=float,
    multiple=True,
    default=(0.2, 0.1, 0.05, 0.02, 0.01),
    show_default=True,
)
@click.option("--tol", "tol", type=float, default=1e-3, show_default=True)
@_grid_options
@_io_options
@click.pass_context
def truncation_bound(ctx, **params):
    """Boundedness and convergence of level-shifted truncations."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.truncation_bound_probe(
            values["func"],
            values["s"],
            list(values["eps_list"]),
            GridSpec(1, values["L"], values["N"]),
            tol=values["tol"],
        )
    )
    _finish(report, values["out"], values["fmt"])


@main.command()
@click.option("--count", "count", type=int, default=100, show_default=True)
@click.option("--seed", "seed", type=int, default=42, show_default=True)
@_grid_options
@_io_options
@click.pass_context
def interp(ctx, **params):
    """Random sweep of the interpolation-bound ratio."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.interp_sweep(
            values["count"],
            values["seed"],
            spec=GridSpec(1, values["L"], values["N"]),
        )
    )
    _finish(report, values["out"], values["fmt"])


@main.command()
@click.option("--func", "func", default=_DEFAULT_FUNC, show_default=True)
@click.option("--s", "s", type=float, default=1.25, show_default=True)
@click.option(
    "--N-list",
    "N_list",
    type=int,
    multiple=True,
    default=(2048, 4096, 8192, 16384),
    show_default=True,
)
@click.option("--L", "L", type=float, default=20.0, show_default=True)
@click.option("--tol", "tol", type=float, default=1e-3, show_default=True)
@click.option(
    "--extrapolate/--no-extrapolate",
    "extrapolate",
    default=True,
    show_default=True,
)
@_io_options
@click.pass_context
def convergence(ctx, **params):
    """Spectral/kernel values versus grid resolution."""
    values = _apply_config(ctx, params)
    report = _run(
        lambda: experiments.convergence_study(
            values["func"],
            values["s"],
            list(values["N_list"]),
            L=values["L"],
            tol=values["tol"],
            extrapolate=values["extrapolate"],
        )
    )
    _finish(report, values["out"], values["fmt"])


if __name__ == "__main__":
    main()
