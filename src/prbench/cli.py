"""Command line front-end: prbench <subcommand> [--config <path>] [--key value ...].

Exit codes: 0 on success, 1 when an output carries a failed pass flag,
2 on usage, input-range, I/O or allocation errors (one `prbench: ...` line on
stderr).
"""

from __future__ import annotations

import sys

from .harness import COMMANDS, make_config, parse_config

USAGE = f"usage: prbench {{{','.join(COMMANDS)}}} [--config PATH] [--key value ...]"


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    overrides = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or i + 1 >= len(tokens):
            raise ValueError(f"expected --key value pairs, got {' '.join(tokens[i:])!r}")
        key = token[2:]
        if key in overrides:
            raise ValueError(f"{key}: given twice")
        overrides[key] = tokens[i + 1]
        i += 2
    return overrides


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        if not argv or argv[0] not in COMMANDS:
            got = repr(argv[0]) if argv else "nothing"
            raise ValueError(f"expected a subcommand ({', '.join(COMMANDS)}), got {got}")
        # the defaults, then the file's lines, then the flags; one check
        flags = _parse_overrides(argv[1:])
        path = flags.pop("config", None)
        values = flags
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise OSError(f"config: cannot read {path}: {exc}") from exc
            values = {**parse_config(text), **flags}
        cfg = make_config(values)
        # only here are the user's keys told apart from the defaults; a flag
        # must name a key the command reads, a file may serve other commands
        command, keys, one_value = COMMANDS[argv[0]]
        for key in flags:
            if key not in keys:
                raise ValueError(f"{key}: {argv[0]} does not read it")
        for key in one_value:
            if key in values and len(getattr(cfg, key)) > 1:
                got = ",".join(map(str, getattr(cfg, key)))
                raise ValueError(f"{key}: {argv[0]} reads one value, got {got}")
        return command(cfg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"prbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
