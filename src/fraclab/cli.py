"""fraclab: batch experiment runner.

Non-interactive by design: each subcommand validates its parameters,
runs one experiment, prints the verdict summary, optionally writes the
report (JSON or CSV), and exits 0 only when every verdict passed
(inconclusive records are counted but do not fail the run). Validation
and usage problems exit with status 2, runtime failures with status 1.
A single optional JSON config file may supply the same keys as the
flags; explicitly passed flags win. The flags are parsed with the
standard library's argparse, so start-up loads no third-party module.
"""

import argparse
import os
import sys

from .errors import (
    DomainError,
    ExpressionError,
    FraclabError,
    SupportRuleError,
)
from .special import kernel_constant

_DEFAULT_FUNC = "x*exp(-x^2)"


def _bool(text):
    """An on/off value from config text, such as true, no, on or 0."""
    word = text.strip().lower()
    if word in ("1", "true", "t", "yes", "y", "on"):
        return True
    if word in ("0", "false", "f", "no", "n", "off"):
        return False
    raise ValueError(f"{text!r} is not a valid boolean")


def _report_path(text):
    """--out, refused before the experiment runs if it cannot be written."""
    if not text:
        raise argparse.ArgumentTypeError("the report path is empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise argparse.ArgumentTypeError(f"file {text!r} is not writable")
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    if not os.path.exists(text) and not os.access(folder, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"directory {folder!r} is not writable")
    return text


def _report_format(text):
    if text not in ("json", "csv"):
        raise argparse.ArgumentTypeError(f"{text!r} is not one of 'json', 'csv'")
    return text


class _Flag:
    """A flag: its option string, the key of its value, the cast of its
    text, its default and help. A repeatable flag (`many`) collects a
    list that replaces its default; a flag cast by `_bool` is an on/off
    pair such as --extrapolate/--no-extrapolate."""

    def __init__(
        self, decl, key, cast=float, default=None, help="", many=False, required=False
    ):
        self.decl, self.key, self.cast, self.default = decl, key, cast, default
        self.help, self.many, self.required = help, many, required

    def add_to(self, parser):
        if self.required:
            note = "[required]"
        elif self.default is None:
            note = ""
        else:
            shown = ", ".join(map(str, self.default)) if self.many else self.default
            note = f"[default: {shown}]"
        if self.cast is _bool:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {
                "type": self.cast,
                "action": "append" if self.many else "store",
                "required": self.required,
            }
        parser.add_argument(
            self.decl, dest=self.key, help=f"{self.help}  {note}".strip(), **kind
        )


def _many(decl, key, default, cast=float):
    return _Flag(decl, key, cast, default, many=True)


_FUNC = _Flag("--func", "func", str, _DEFAULT_FUNC)
_S = _Flag("--s", "s", float, 1.25)
_TOL = _Flag("--tol", "tol", float, 1e-3)
_EXTRAPOLATE = _Flag(
    "--extrapolate",
    "extrapolate",
    _bool,
    True,
    "Extrapolate the frequency-cutoff tail of kinked integrands.",
)
_L = _Flag("--L", "L", float, 20.0, "Half-width of the sampling box.")
_N = _Flag("--N", "N", int, 16384, "Grid nodes (power of two).")
_CONFIG = _Flag(
    "--config",
    "config_path",
    str,
    help="JSON config file with the same keys as the flags; flags win.",
)
_IO = (
    _Flag("--out", "out", _report_path, help="Report output path."),
    _Flag("--format", "fmt", _report_format, "json", "Report file format: json or csv."),
    _CONFIG,
)


def _spec(values):
    from .grid import GridSpec

    return GridSpec(1, values["L"], values["N"])


def _config(path, flags, given, parser):
    """The values of the JSON config file at path for the flags that were
    not given, each cast like its flag's text. A bad file, key or value is
    a usage error, like a bad flag. json loads here, so that a run without
    --config starts without it."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config {path} must hold a JSON object")
    by_key = {f.key: f for f in flags if f is not _CONFIG}
    values = {}
    for key, val in data.items():
        if key not in by_key:
            parser.error(f"config key {key!r} is not a flag of this subcommand")
        if key not in given:
            try:
                values[key] = _config_value(by_key[key], val)
            except ValueError as exc:
                parser.error(f"config {path}: {exc}")
    return values


def _config_value(flag, val):
    """Cast a config value as the flag casts its text: a repeatable flag
    takes a list of numbers or strings, any other flag one of them."""
    items = val if isinstance(val, list) else [val]
    if isinstance(val, list) != flag.many or not all(
        isinstance(v, (str, int, float)) for v in items
    ):
        shape = "a list of numbers or strings" if flag.many else "a number or string"
        raise ValueError(f"{flag.key!r} needs {shape}")
    try:
        cast = [flag.cast(str(v)) for v in items]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{flag.key!r}: {exc}") from None
    return cast if flag.many else cast[0]


# the errors that refuse an input: a validation error, exit 2
REFUSED = (DomainError, ExpressionError, SupportRuleError, OverflowError)


def _run(builder):
    """Run an experiment builder with the exit-status contract."""
    try:
        return builder()
    except REFUSED as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (FraclabError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate
        print(f"experiment failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        sys.exit(1)


def constants(values):
    """Print the kernel normalization constant for (n, s)."""
    n, s = values["n"], values["s"]
    value = _run(lambda: kernel_constant(n, s))
    print(f"C({n}, {s:g}) = {value!r}")


# subcommand name -> (help, flags, run(flag values)), in help order
_COMMANDS = {
    "constants": (
        constants.__doc__,
        (
            _Flag("--n", "n", int, 1),
            _Flag("--s", "s", float, help="Fractional order.", required=True),
        ),
        constants,
    )
}
# experiment subcommand name -> body(experiments module, flag values) -> report
BODIES = {}


def _experiment(*flags):
    """Register the decorated body as a subcommand with the given flags
    (in help order) plus --out/--format/--config. The body takes the
    experiments module and the flag values, overlaid with the config file,
    and returns a report; the subcommand prints it, writes it and exits by
    the status contract. BODIES keeps the body under the subcommand name."""

    def register(body):
        name = body.__name__.replace("_", "-")
        BODIES[name] = body
        _COMMANDS[name] = (body.__doc__, flags + _IO, lambda v: _report(body, v))
        return body

    return register


def _report(body, values):
    """Run an experiment body, print its report, write it to --out and exit
    1 unless every verdict passed. numpy loads here, with the first
    experiment, so that `constants`, --help and usage errors start without
    it. The experiment runs with glibc's heap held (spectral._hold_heap),
    whatever its N: interp's draws at 2^14 churn it too."""
    from . import experiments, reports
    from .spectral import _hold_heap

    _hold_heap()
    report = _run(lambda: body(experiments, values))
    print(reports.report_to_text(report), end="", flush=True)
    out = values["out"]
    if out:
        _run(lambda: reports.write_report(report, out, values["fmt"]))
        print(f"report written to {out}", flush=True)
    if not report.all_pass:
        sys.exit(1)


def _parsers(named):
    """The top-level parser and each subcommand's parser by name. Only the
    named subcommand's parser gets its flags: the others serve the list
    of subcommands in --help. A flag that is not given is left out of the
    parsed namespace."""
    top = argparse.ArgumentParser(
        prog="fraclab",
        description="Numerical experiments on sign-truncated fractional-order forms.",
        add_help=False,
        allow_abbrev=False,
    )
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (doc, flags, _) in _COMMANDS.items():
        sub = commands.add_parser(
            name,
            help=doc,
            description=doc,
            add_help=False,
            allow_abbrev=False,
            argument_default=argparse.SUPPRESS,
        )
        for flag in flags if name == named else ():
            flag.add_to(sub)
    for parser in (top, *commands.choices.values()):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
    return top, commands.choices


def _joined(words, flags):
    """words with each of the flags that takes a value joined to the word
    after it (`--func=-exp(-x^2)`), so that the word is the value even
    when it starts with '-', which argparse would read as a flag."""
    takes_value = {f.decl for f in flags if f.cast is not _bool}
    joined, rest = [], iter(words)
    for word in rest:
        value = next(rest, None) if word in takes_value else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def parse(argv):
    """The subcommand that argv names and its flag values: each flag's
    default, overlaid with the --config file, overlaid with the flags
    given. A usage error prints the usage and exits 2."""
    argv = list(argv)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    top, subs = _parsers(named)
    flags = _COMMANDS[named][1] if named else ()
    given, extra = top.parse_known_args(argv[:1] + _joined(argv[1:], flags))
    given = vars(given)
    name = given.pop("command")
    if extra:
        subs[name].error(f"unrecognized arguments: {' '.join(extra)}")
    _, flags, _ = _COMMANDS[name]
    values = {f.key: f.default for f in flags if f is not _CONFIG}
    if "config_path" in given:
        values.update(_config(given.pop("config_path"), flags, given, subs[name]))
    values.update(given)
    return name, values


def main(argv=None):
    """Run the subcommand that argv (default: the process arguments) names
    and exit with its status."""
    name, values = parse(sys.argv[1:] if argv is None else argv)
    _COMMANDS[name][2](values)
    sys.exit(0)


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
    _Flag("--count", "count", int, 100),
    _Flag("--seed", "seed", int, 42),
    _L,
    _N,
)
def interp(experiments, v):
    """Random sweep of the interpolation-bound ratio."""
    return experiments.interp_sweep(v["count"], v["seed"], spec=_spec(v))


@_experiment(
    _FUNC,
    _S,
    _many("--N-list", "N_list", (2048, 4096, 8192, 16384), cast=int),
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
