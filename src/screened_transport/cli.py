"""Command line interface: run / validate experiment configs."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .runner import EXIT_CODES, run


def _load(path: str):
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="screened-transport",
        description="Run screened-Riesz transport experiments from declarative configs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("run", "execute one experiment config"),
                      ("validate", "check a config and echo the resolved values")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to an INI experiment config")
    args = ap.parse_args(argv)

    try:
        cfg = _load(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CODES["config_error"]
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for key, value in sorted(cfg.as_dict().items()):
            print(f"{key} = {value}")
        return 0
    try:
        return run(cfg)
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
