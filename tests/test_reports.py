"""Serialization stability tests."""

import json
import math

import pytest

from fraclab.errors import FraclabError
from fraclab.reports import (
    ExperimentReport,
    ResultRecord,
    Verdict,
    report_to_csv,
    report_to_json,
    report_to_text,
    write_report,
)


def make_report():
    return ExperimentReport(
        experiment="identity",
        params={"s": 1.25, "N": 16384, "source": "x*exp(-x^2)", "flag": True},
        results=(
            ResultRecord(
                quantity="cross form",
                spectral_value=0.1,
                kernel_value=0.1000001,
                discrepancy=9.999990000012758e-07,
                spectral_error=1e-09,
                kernel_error=2e-09,
            ),
            ResultRecord(quantity="spectral only", spectral_value=-3.5),
        ),
        verdicts=(
            Verdict(claim="routes agree", status="pass", detail="ok"),
        ),
        runtime_seconds=0.125,
    )


def test_json_is_byte_stable():
    rep = make_report()
    assert report_to_json(rep) == report_to_json(rep)


def test_json_field_order_and_float_format():
    text = report_to_json(make_report())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc.keys()) == [
        "experiment",
        "params",
        "results",
        "verdicts",
        "runtime_seconds",
    ]
    # 0.1 prints all seventeen significant digits
    assert '"spectral_value": 0.10000000000000001' in text
    assert doc["results"][1]["kernel_value"] is None
    assert doc["params"]["flag"] is True


def test_json_bool_not_rendered_as_int():
    text = report_to_json(make_report())
    assert '"flag": true' in text
    assert '"flag": 1' not in text


def test_json_nonfinite_floats_are_quoted():
    rep = ExperimentReport(
        experiment="t",
        params={"a": math.nan, "b": math.inf, "c": -math.inf},
        results=(),
        verdicts=(),
        runtime_seconds=0.0,
    )
    text = report_to_json(rep)
    assert '"a": "nan"' in text
    assert '"b": "inf"' in text
    assert '"c": "-inf"' in text


def test_empty_report_is_valid_json():
    rep = ExperimentReport(
        experiment="t", params={}, results=(), verdicts=(), runtime_seconds=0.0
    )
    doc = json.loads(report_to_json(rep))
    assert doc["results"] == []
    assert doc["verdicts"] == []
    assert doc["params"] == {}


def test_csv_header_and_none_cells():
    text = report_to_csv(make_report())
    lines = text.splitlines()
    assert lines[0] == (
        "experiment,quantity,spectral_value,kernel_value,"
        "discrepancy,spectral_error,kernel_error"
    )
    assert len(lines) == 3
    # the spectral-only record leaves kernel columns empty
    assert lines[2] == "identity,spectral only,-3.5,,,,"
    assert lines[1].startswith("identity,cross form,0.10000000000000001,")


def test_text_has_a_line_per_record_and_verdict_and_the_counts():
    assert report_to_text(make_report()) == (
        "  cross form: spectral=0.1 kernel=0.1000001 "
        "discrepancy=9.999990000012758e-07\n"
        "  spectral only: spectral=-3.5\n"
        "[PASS] routes agree :: ok\n"
        "verdicts: 1 pass, 0 fail, 0 inconclusive (runtime 0.12s)\n"
    )


def test_write_report_roundtrip(tmp_path):
    rep = make_report()
    path = tmp_path / "report.json"
    write_report(rep, path)
    assert path.read_text(encoding="utf-8") == report_to_json(rep)
    cpath = tmp_path / "report.csv"
    write_report(rep, cpath, fmt="csv")
    assert cpath.read_text(encoding="utf-8") == report_to_csv(rep)


def test_write_report_errors(tmp_path):
    rep = make_report()
    with pytest.raises(FraclabError):
        write_report(rep, tmp_path / "x.json", fmt="yaml")
    with pytest.raises(FraclabError) as exc:
        write_report(rep, tmp_path / "missing" / "x.json")
    assert "missing" in str(exc.value)
