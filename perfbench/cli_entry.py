"""Traced stand-in for `python -m quiverinv.cli`.

    python perfbench/cli_entry.py <spans.json> <cli arguments...>

Times the import of quiverinv.cli, installs the tracer's wrappers, runs
quiverinv.cli.main on the arguments and writes the span aggregate to
<spans.json> for the parent to merge.  Exits with main's exit code.
Spans inside --jobs pool workers are not collected; that time shows as
self time of the invariant span that waits for the pool.
"""

import importlib
import json
import sys
import time

import tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("quiverinv.cli")
    import_s = time.perf_counter() - start
    tr = tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tr.aggregate(import_s), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
