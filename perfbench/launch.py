"""Run the ``reckoner`` CLI once in this process, as the console script does.

    python3 perfbench/launch.py [--stamp FILE --stamp-at train|predict
                                 [--stop-at-setup]]
                                [--trace FILE --run-id ID] -- <reckoner args>

``--stamp`` wraps the one name the CLI calls to start the timed work
(``reckoner.cli.train`` or ``reckoner.cli.predict``) and writes
``time.monotonic_ns()`` to FILE on its first call; with ``--stop-at-setup``
the process exits there. ``--trace`` installs the span tracer instead, runs
the CLI, restores every patched attribute and writes the spans to FILE.
The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def _stamp_hook(path: Path, stop: bool, fn):
    def stamped(*args, **kwargs):
        if not path.exists():
            path.write_text(str(time.monotonic_ns()), encoding="utf-8")
            if stop:
                raise SystemExit(0)
        return fn(*args, **kwargs)
    return stamped


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--stamp", type=Path)
    parser.add_argument("--stamp-at", choices=("train", "predict"), default="train")
    parser.add_argument("--stop-at-setup", action="store_true")
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import reckoner.cli

    if args.trace is not None:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
        try:
            code = reckoner.cli.main(cli_args)
        finally:
            tracer.restore()
            tracer.save(args.trace)
        return code
    if args.stamp is not None:
        original = getattr(reckoner.cli, args.stamp_at)
        setattr(reckoner.cli, args.stamp_at,
                _stamp_hook(args.stamp, args.stop_at_setup, original))
    return reckoner.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
