"""Batch command-line front end.

Subcommands: ``run <config>`` executes the configured analyses and writes
reports, ``validate <config>`` only parses and checks, ``schema`` prints the
accepted configuration outline.  Exit codes: 0 success, 2 configuration
error, 3 numerical-accuracy failure (a failed certificate, or a float
overflow in the numerics), 4 model-validation failure.

The window cache directory is taken from $FLUCTLAB_CACHE when set: it
holds the window profile tables and the arrays built on them: the radial
chain kernels (``chain_*.npy``), the heat-kernel tables of the weighted
orders (``heat_*.npy``) and the folded position-space overlaps
(``overlap_*.npy``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import config_schema, parse_config
from .errors import (
    ConfigError,
    FluctlabError,
    ModelValidationError,
    NumericalAccuracyError,
)
from .report import emit
from .runner import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_MODEL = 4


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration {path} is not UTF-8: {exc}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fluctlab",
                                     description="Scaling laboratory for fluctuation observables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")

    p_val = sub.add_parser("validate", help="parse and validate a configuration")
    p_val.add_argument("config", help="path to a JSON run configuration")

    sub.add_parser("schema", help="print the configuration schema outline")

    args = parser.parse_args(argv)
    cache_dir = os.environ.get("FLUCTLAB_CACHE") or None

    try:
        if args.command == "schema":
            print(json.dumps(config_schema(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "validate":
            _load(args.config)
            print(f"{args.config}: valid")
            return EXIT_OK
        config = _load(args.config)
        report = run(config, cache_dir=cache_dir)
        out_dir = args.out_dir or config.output_block["directory"]
        paths = emit(report, out_dir, config.output_block["basename"],
                     config.output_block["formats"])
        for path in paths:
            print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalAccuracyError, OverflowError) as exc:
        print(f"numerical-accuracy error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ModelValidationError as exc:
        print(f"model-validation error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except FluctlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
