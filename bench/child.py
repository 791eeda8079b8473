"""One timed ``levylab`` invocation, run in a fresh interpreter by run.py.

    python3 bench/child.py RESULT_JSON [--spans SPANS_JSON] -- <levylab args>

Imports ``levylab`` (run.py puts the checkout's ``src`` on PYTHONPATH and
this script refuses any other copy), optionally installs the
span tracer, times ``levylab.cli.main`` with ``time.perf_counter`` and
writes ``{"status": <exit code>, "wall_s": <seconds>}`` to RESULT_JSON.
Exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    result_path = Path(own[0])
    spans_path = Path(own[own.index("--spans") + 1]) if "--spans" in own else None

    import levylab
    import levylab.cli

    if Path(levylab.__file__).resolve().parent != ROOT / "src" / "levylab":
        print(f"levylab imported from {levylab.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    recorder = None
    if spans_path is not None:
        from tracing import install
        recorder = install(levylab)

    start = time.perf_counter()
    status = levylab.cli.main(cli_args)
    wall = time.perf_counter() - start

    result_path.write_text(json.dumps({"status": status, "wall_s": wall}), encoding="utf-8")
    if recorder is not None:
        recorder.dump(spans_path, start, {"argv": cli_args, "wall_s": wall})
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
