"""Regenerate oracle.json from the package in the current checkout.

    python3 perfbench/freeze_oracle.py

Run from the repository root, and only at a commit whose outputs are
known good: every benchmark run is checked against this file.  It holds
the exact stdout of each cli-cache `invariant` command.  Check verdicts
are not frozen (they must simply be true), and neither is any `ucoeff`
listing.
"""

import json
import sys
import tempfile
from pathlib import Path

import worker


def main() -> int:
    stdout = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        commands = worker.cli_commands(worker.write_cli_fixtures(Path(tmp)), 0)
        for i, (label, args, verdict) in enumerate(commands):
            if verdict is None:
                rc, out = worker.run_command([*args, "--cache", str(Path(tmp) / f"cache-{i}")])
                if rc != 0:
                    raise SystemExit(f"{label} exited with {rc}")
                stdout[label] = out
    worker.ORACLE_PATH.write_text(json.dumps({"cli-cache": stdout}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
