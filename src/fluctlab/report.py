"""Run reports and their serialized forms.

The JSON report is canonical (sorted keys, fixed separators, repr floats)
and contains no wall-clock data, so identical configurations produce
byte-identical files; timings are written to a sidecar.  CSV rows carry the
per-scale complex values of every sweep; plot-data is (log10 R, log10 |v|)
pairs ready for external plotting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FluctlabError, InvalidArgumentError

REPORT_SCHEMA_ID = "fluctlab-report/1"
FORMATS = ("json", "csv", "plot-data")
CSV_COLUMNS = ("analysis", "label", "order", "r", "re", "im", "abs")
PLOT_COLUMNS = ("analysis", "label", "log10_r", "log10_abs")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _jsonable(obj.item())
        except (AttributeError, ValueError):
            pass
    return obj


def canonical_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunReport:
    schema: str
    config_echo: dict
    results: tuple
    timings: dict

    def payload(self) -> dict:
        """Deterministic part of the report (everything except timings)."""
        return {
            "schema": self.schema,
            "config": self.config_echo,
            "results": list(self.results),
        }

    def sweep_rows(self):
        """One row per scale of every sweep: each dict holding r_values and values."""
        for idx, result in enumerate(self.results):
            name = f"{idx}:{result.get('kind', 'analysis')}"
            for sweep in _sweeps(result):
                label = sweep.get("label", "correlator")
                order = sweep.get("order", 0)
                for r, v in zip(sweep["r_values"], sweep["values"]):
                    yield name, label, order, r, v["re"], v["im"], abs(complex(v["re"], v["im"]))


def _sweeps(node):
    """Sweep dicts below node, walking dicts and lists in insertion order."""
    if isinstance(node, dict):
        if "r_values" in node and "values" in node:
            yield node
            return
        node = node.values()
    elif not isinstance(node, (list, tuple)):
        return
    for child in node:
        yield from _sweeps(child)


def emit(report: RunReport, directory, basename: str = "report",
         formats=("json",)) -> list[Path]:
    """Write the report in the requested formats; returns the paths written."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FluctlabError(f"cannot create output directory {directory}: {exc}") from exc
    written = []
    for fmt in formats:
        if fmt == "json":
            path = directory / f"{basename}.json"
            _write_text(path, canonical_json(report.payload()) + "\n")
            tpath = directory / f"{basename}-timings.json"
            _write_text(tpath, json.dumps(_jsonable(report.timings), sort_keys=True) + "\n")
            written += [path, tpath]
        elif fmt == "csv":
            path = directory / f"{basename}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for row in report.sweep_rows():
                    writer.writerow([row[0], row[1], row[2]] + [repr(x) for x in row[3:]])
            written.append(path)
        elif fmt == "plot-data":
            path = directory / f"{basename}-plot.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(PLOT_COLUMNS)
                for name, label, _, r, re, im, mag in report.sweep_rows():
                    if mag > 0:
                        writer.writerow([name, label, repr(math.log10(r)), repr(math.log10(mag))])
            written.append(path)
        else:
            raise InvalidArgumentError(f"unknown output format {fmt!r}")
    return written


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise FluctlabError(f"cannot write {path}: {exc}") from exc
