"""The experiment report, defined and written in one place.

ExperimentReport, ResultRecord and Verdict fix every key order: JSON
documents and the CSV header take their keys from the dataclass fields in
declaration order, and floats are written with 17 significant digits, so
identical reports serialize to identical bytes. The CSV holds one row per
result record; verdicts live in the JSON document and in report_to_text's
console lines. The module imports no numpy and no route.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import FraclabError

_TINY = 1e-300


def discrepancy(a: float, b: float) -> float:
    """Relative difference with a denominator floor so 0 vs 0 is 0."""
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(a), abs(b), _TINY)


@dataclass(frozen=True)
class ResultRecord:
    quantity: str
    spectral_value: float
    kernel_value: Optional[float] = None
    discrepancy: Optional[float] = None
    spectral_error: Optional[float] = None
    kernel_error: Optional[float] = None


@dataclass(frozen=True)
class Verdict:
    claim: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: dict
    results: tuple
    verdicts: tuple
    runtime_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)


def _report(experiment, params, results, verdicts, t0) -> ExperimentReport:
    """The report of an experiment that started at perf_counter() t0."""
    return ExperimentReport(
        experiment=experiment,
        params=params,
        results=tuple(results),
        verdicts=tuple(verdicts),
        runtime_seconds=time.perf_counter() - t0,
    )


def _check(claim: str, ok, detail: str) -> Verdict:
    return Verdict(claim, "pass" if ok else "fail", detail)


def _inconclusive(claim: str, detail: str) -> Verdict:
    return Verdict(claim, "inconclusive", detail)


def _record(quantity, spectral, kernel=None, s_err=None, k_err=None):
    disc = None if kernel is None else float(discrepancy(spectral, kernel))
    return ResultRecord(
        quantity=quantity,
        spectral_value=float(spectral),
        kernel_value=None if kernel is None else float(kernel),
        discrepancy=disc,
        spectral_error=None if s_err is None else float(s_err),
        kernel_error=None if k_err is None else float(k_err),
    )


_FLOAT_FMT = ".17g"


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        text = format(value, _FLOAT_FMT)
        # NaN and the infinities are the strings "nan", "inf" and "-inf"
        return text if math.isfinite(value) else f'"{text}"'
    if isinstance(value, (bool, int, str)):
        return json.dumps(value, ensure_ascii=False)
    raise FraclabError(f"cannot serialize value of type {type(value).__name__}")


def _json_value(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_json_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _json_scalar(value)


def _fields(obj) -> dict:
    """A dataclass's fields by name, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def report_to_json(report: ExperimentReport) -> str:
    doc = _fields(report)
    doc["results"] = [_fields(r) for r in report.results]
    doc["verdicts"] = [_fields(v) for v in report.verdicts]
    return _json_value(doc, 0) + "\n"


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRecord))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("experiment",) + _RECORD_FIELDS)
    for r in report.results:
        row = [_csv_cell(getattr(r, name)) for name in _RECORD_FIELDS]
        writer.writerow([report.experiment, *row])
    return buf.getvalue()


def report_to_text(report: ExperimentReport) -> str:
    """The console summary: one line per record with the values it has,
    one per verdict, and the verdict counts with the wall time."""
    lines = []
    for rec in report.results:
        line = f"  {rec.quantity}: spectral={rec.spectral_value!r}"
        if rec.kernel_value is not None:
            line += f" kernel={rec.kernel_value!r}"
        if rec.discrepancy is not None:
            line += f" discrepancy={rec.discrepancy!r}"
        lines.append(line)
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for v in report.verdicts:
        counts[v.status] += 1
        lines.append(f"[{v.status.upper()}] {v.claim} :: {v.detail}")
    lines.append(
        f"verdicts: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['inconclusive']} inconclusive "
        f"(runtime {report.runtime_seconds:.2f}s)"
    )
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    if fmt not in ("json", "csv"):
        raise FraclabError(f"unknown report format {fmt!r}")
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FraclabError(f"cannot write report to {path}: {exc}") from exc
