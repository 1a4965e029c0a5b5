"""Command line front-end: prbench <subcommand> --config <path> [--key value ...].

Exit codes: 0 on success, 1 when an output carries a failed pass flag,
2 on usage, input-range, capability or I/O errors (one `prbench: ...` line
on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapabilityError, DegenerateSpectrumError, PowerIterationError
from .harness import COMMANDS, make_config, parse_config


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    overrides = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or i + 1 >= len(tokens):
            raise ValueError(f"expected --key value pairs, got {' '.join(tokens[i:])!r}")
        overrides[token[2:]] = tokens[i + 1]
        i += 2
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbench",
        description="Phase retrieval experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", default=None, help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        # the defaults, then the file's lines, then the flags; one check
        overrides = _parse_overrides(extra)
        values = {}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = parse_config(fh.read())
        values.update(overrides)
        return COMMANDS[args.command](make_config(values))
    except (
        ValueError, OSError, CapabilityError, PowerIterationError, DegenerateSpectrumError,
    ) as exc:
        print(f"prbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
