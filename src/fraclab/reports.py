"""Bit-stable report serialization.

JSON documents and the CSV header take their keys, in declaration order,
from the fields of ExperimentReport, ResultRecord and Verdict (experiment,
params, results, verdicts, runtime_seconds at the top level), and write
floats with 17 significant digits, so identical reports serialize to
identical bytes. The CSV flattening emits one row per result record;
verdicts live in the JSON document and on the console.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from .errors import FraclabError
from .experiments import ExperimentReport, ResultRecord

_FLOAT_FMT = ".17g"


def _format_float(x: float) -> str:
    if x != x:  # NaN
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, _FLOAT_FMT)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
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


def write_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    if fmt not in ("json", "csv"):
        raise FraclabError(f"unknown report format {fmt!r}")
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FraclabError(f"cannot write report to {path}: {exc}") from exc
