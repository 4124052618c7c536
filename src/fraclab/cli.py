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

from .errors import (
    DomainError,
    ExpressionError,
    FraclabError,
    SupportRuleError,
)
from .special import kernel_constant

_DEFAULT_FUNC = "x*exp(-x^2)"


@click.group()
def main():
    """Numerical experiments on sign-truncated fractional-order forms."""


def _option(*decls, **attrs):
    """A flag whose help shows its default."""
    return click.option(*decls, show_default=True, **attrs)


def _many(flag, name, default, type=float):
    return _option(flag, name, type=type, multiple=True, default=default)


_FUNC = _option("--func", "func", default=_DEFAULT_FUNC)
_S = _option("--s", "s", type=float, default=1.25)
_TOL = _option("--tol", "tol", type=float, default=1e-3)
_EXTRAPOLATE = _option(
    "--extrapolate/--no-extrapolate",
    "extrapolate",
    default=True,
    help="Extrapolate the frequency-cutoff tail of kinked integrands.",
)
_L = _option(
    "--L", "L", type=float, default=20.0, help="Half-width of the sampling box."
)
_N = _option("--N", "N", type=int, default=16384, help="Grid nodes (power of two).")
_IO = (
    click.option(
        "--out",
        "out",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Report output path.",
    ),
    _option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        help="Report file format.",
    ),
    click.option(
        "--config",
        "config_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="JSON config file with the same keys as the flags; flags win.",
    ),
)


def _spec(values):
    from .grid import GridSpec

    return GridSpec(1, values["L"], values["N"])


def _apply_config(ctx, params: dict) -> dict:
    """The subcommand's parameters, without config_path, with the config
    file's values overlaid onto defaulted ones (flags win). A bad config
    value is a usage error, like a bad flag."""
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
    flags = {p.name: p for p in ctx.command.params}
    for key, val in data.items():
        if key not in values:
            raise click.UsageError(
                f"config key {key!r} is not a flag of this subcommand"
            )
        if ctx.get_parameter_source(key) is ParameterSource.DEFAULT:
            values[key] = _config_value(ctx, flags[key], val, config_path)
    return values


def _config_value(ctx, param, val, config_path):
    """Cast a config value as the flag casts its text: a repeatable flag
    takes a list of numbers or strings, any other flag one of them."""
    items = val if isinstance(val, list) else [val]
    if isinstance(val, list) != param.multiple or not all(
        isinstance(v, (str, int, float)) for v in items
    ):
        shape = (
            "a list of numbers or strings" if param.multiple
            else "a number or string"
        )
        raise click.UsageError(
            f"config {config_path}: {param.name!r} needs {shape}"
        )
    text = [str(v) for v in items]
    try:
        return param.type_cast_value(ctx, text if param.multiple else text[0])
    except click.BadParameter as exc:
        raise click.UsageError(f"config {config_path}: {exc.format_message()}")


def _run(builder):
    """Run an experiment builder with the exit-status contract."""
    try:
        return builder()
    except (DomainError, ExpressionError, SupportRuleError, OverflowError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except FraclabError as exc:
        click.echo(f"experiment failure: {exc}", err=True)
        sys.exit(1)


# subcommand name -> body(experiments module, flag values) -> report
BODIES = {}


def _experiment(*flags):
    """Register the decorated body as a subcommand with the given flags
    (in help order) plus --out/--format/--config. The body takes the
    experiments module and the flag values, overlaid with the config file,
    and returns a report; the subcommand prints it, writes it and exits by
    the status contract. BODIES keeps the body under the subcommand name.
    numpy loads here, with the first experiment, so that `constants`,
    --help and usage errors start without it."""

    def register(body):
        @click.pass_context
        def command(ctx, **params):
            from . import experiments, reports

            values = _apply_config(ctx, params)
            report = _run(lambda: body(experiments, values))
            click.echo(reports.report_to_text(report), nl=False)
            out = values["out"]
            if out:
                _run(lambda: reports.write_report(report, out, values["fmt"]))
                click.echo(f"report written to {out}")
            if not report.all_pass:
                sys.exit(1)

        for flag in reversed(flags + _IO):
            command = flag(command)
        name = body.__name__.replace("_", "-")
        BODIES[name] = body
        return main.command(name=name, help=body.__doc__)(command)

    return register


@main.command()
@click.option("--n", "n", type=int, default=1, show_default=True)
@click.option("--s", "s", type=float, required=True, help="Fractional order.")
def constants(n, s):
    """Print the kernel normalization constant for (n, s)."""
    value = _run(lambda: kernel_constant(n, s))
    click.echo(f"C({n}, {s:g}) = {value!r}")


@_experiment(_FUNC, _S, _TOL, _EXTRAPOLATE, _L, _N)
def identity(experiments, v):
    """Cross-check the truncation identity spectrally and by quadrature."""
    return experiments.verify_identity(
        v["func"], v["s"], _spec(v), tol=v["tol"], extrapolate=v["extrapolate"]
    )


@_experiment(_FUNC, _many("--s", "s_list", (0.25, 0.5, 0.75, 1.1, 1.25, 1.4)), _L, _N)
def sign_sweep(experiments, v):
    """Sign of the modulus-form defect across a list of orders."""
    return experiments.sign_sweep(v["func"], list(v["s_list"]), _spec(v))


@_experiment(
    _FUNC,
    _many("--s", "s_list", (1.3, 1.4, 1.6, 1.7)),
    _many("--cutoff", "cutoffs", (80.0, 160.0, 320.0, 640.0, 1280.0)),
    _L,
    _N,
)
def counterexample(experiments, v):
    """Partial-sum growth scan for kinked positive parts."""
    return experiments.counterexample_scan(
        v["func"], list(v["s_list"]), list(v["cutoffs"]), _spec(v)
    )


@_experiment(
    _FUNC,
    _S,
    _many("--eps", "eps_list", (0.2, 0.1, 0.05, 0.02, 0.01)),
    _TOL,
    _L,
    _N,
)
def truncation_bound(experiments, v):
    """Boundedness and convergence of level-shifted truncations."""
    return experiments.truncation_bound_probe(
        v["func"], v["s"], list(v["eps_list"]), _spec(v), tol=v["tol"]
    )


@_experiment(
    _option("--count", "count", type=int, default=100),
    _option("--seed", "seed", type=int, default=42),
    _L,
    _N,
)
def interp(experiments, v):
    """Random sweep of the interpolation-bound ratio."""
    return experiments.interp_sweep(v["count"], v["seed"], spec=_spec(v))


@_experiment(
    _FUNC,
    _S,
    _many("--N-list", "N_list", (2048, 4096, 8192, 16384), type=int),
    _L,
    _TOL,
    _EXTRAPOLATE,
)
def convergence(experiments, v):
    """Spectral/kernel values versus grid resolution."""
    return experiments.convergence_study(
        v["func"],
        v["s"],
        list(v["N_list"]),
        L=v["L"],
        tol=v["tol"],
        extrapolate=v["extrapolate"],
    )


if __name__ == "__main__":
    main()
