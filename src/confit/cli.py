"""Command-line front end.

Subcommands: ``run`` (execute an experiment config), ``validate-config``,
``compare`` (two history files, significance-flagged table), ``plotdata``
(per-iteration mean/std CSV).  Exit codes: 0 success, 1 runtime failure,
2 configuration error.  ``CONFIT_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config, validate_dataset_columns
from .errors import ConfigError, ConfitError
from .experiment import (compare_rows, load_history_file, plotdata_rows,
                         run_experiment)

log = logging.getLogger("confit")


def _setup_logging():
    level = os.environ.get("CONFIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confit",
        description="Constrained regression by iterative target adjustment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to the YAML config")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker processes for independent runs")
    p_run.add_argument("--seed", type=int, default=None, help="override run.seed")

    p_val = sub.add_parser("validate-config", help="check a config file and dataset columns")
    p_val.add_argument("--config", required=True)

    p_cmp = sub.add_parser("compare", help="compare two history files metric by metric")
    p_cmp.add_argument("history_a")
    p_cmp.add_argument("history_b")
    p_cmp.add_argument("--out", default=None, help="also write the table to this CSV file")

    p_plot = sub.add_parser("plotdata", help="emit per-iteration mean/std curves as CSV")
    p_plot.add_argument("history")
    p_plot.add_argument("--out", default=None, help="also write the CSV to this file")
    return parser


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    artifacts = run_experiment(cfg, jobs=max(args.jobs, 1), out_dir=args.out)
    print(f"summary: {artifacts['summary']}")
    for path in artifacts["histories"]:
        print(f"history: {path}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    header = validate_dataset_columns(cfg)
    print(f"config ok: {args.config} ({len(header)} dataset columns)")
    return 0


def cmd_compare(args) -> int:
    meta_a, hist_a = load_history_file(args.history_a, vectors=False)
    meta_b, hist_b = load_history_file(args.history_b, vectors=False)
    return _emit(compare_rows(meta_a, hist_a, meta_b, hist_b), args.out)


def cmd_plotdata(args) -> int:
    _, histories = load_history_file(args.history, vectors=False)
    return _emit(plotdata_rows(histories), args.out)


def _emit(lines: list[str], out: str | None) -> int:
    """Print the CSV lines, and also write them to `out` when given."""
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "validate-config": cmd_validate,
        "compare": cmd_compare,
        "plotdata": cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort reporting
        log.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
