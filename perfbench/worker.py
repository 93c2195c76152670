"""One repetition of a benchmark workload, in a fresh interpreter.

    python perfbench/worker.py setup <workload> <workdir>
    python perfbench/worker.py run <workload> <workdir> <seed> <trace>

Both modes import the package and build the workload's fixtures; `setup`
stops there, so the parent can time interpreter start to ready.  `run`
then makes the job list from the seed and runs it once, with every
module-level memo empty.  For cli-cache the job list is a cold pass of
CLI processes with empty disk caches, then a warm pass of the same
commands reading them.  With trace 1 the jobs run under the tracer's
wrappers.  Every check verdict must be true, the stdout of each CLI
`invariant` command must match oracle.json, and warm CLI output must
equal cold output byte for byte.  The last stdout line is
one JSON object with the times (in reference seconds, see refspeed.py,
and the raw `raw_wall_s`), peak RSS, job counts and, when traced, the
span aggregate.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import refspeed
import tracer

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"

WALLCROSS_CLASSES = [(2, 2), (3, 2), (2, 3)]
HIGH = {"v": 1, "w": 0}
LOW = {"v": 0, "w": 1}
FRAMING = {"v": 1, "w": 1}
CLI_TIMEOUT_S = 120


def kronecker_json(m: int) -> dict:
    return {"vertices": ["v", "w"], "edges": [{"id": f"a{i}", "from": "v", "to": "w"} for i in range(m)]}


def chamber_slope(rng: random.Random, v_above: bool) -> dict[str, int]:
    """Random integer slope, as in the acceptance battery, on one side of the K3 wall."""
    while True:
        v, w = rng.randint(-6, 6), rng.randint(-6, 6)
        if v != w and (v > w) == v_above:
            return {"v": v, "w": w}


def slope_pairs(rng: random.Random) -> list[tuple[dict, dict]]:
    # On a two-vertex quiver only the sign of mu(v) - mu(w) matters, so a
    # pair either crosses the one wall or is trivial.  Two crossings each
    # way keep the work the same for every seed; the seed picks the values
    # and the order.
    pairs = []
    for down in (True, True, False, False):
        hi, lo = chamber_slope(rng, True), chamber_slope(rng, False)
        pairs.append((hi, lo) if down else (lo, hi))
    rng.shuffle(pairs)
    return pairs


def identity_check_jobs(qi, seed: int) -> list:
    """(label, thunk) pairs; every check must return True."""
    inv = qi.invariants
    rng = random.Random(seed)
    quivers = {"a2": qi.Quiver(["v", "w"], [("e1", "v", "w")])}
    quivers["k2"] = qi.Quiver.from_json(kronecker_json(2))
    quivers["k3"] = qi.Quiver.from_json(kronecker_json(3))
    k3 = quivers["k3"]
    jobs = []
    for a, b in slope_pairs(rng):
        sa, sb = qi.slope_stability(k3, a), qi.slope_stability(k3, b)
        for dv in WALLCROSS_CLASSES:
            d = qi.DimVector({"v": dv[0], "w": dv[1]})
            jobs.append((f"wallcross k3 {dv} {a}->{b}",
                         lambda sa=sa, sb=sb, d=d: inv.check_wallcross(k3, sa, sb, d)))
    tau_k2 = qi.slope_stability(quivers["k2"], HIGH)
    for dv in ((2, 1), (2, 2)):
        _, collapse, ones = qi.binarize_quiver(quivers["k2"], qi.DimVector({"v": dv[0], "w": dv[1]}))
        jobs.append((f"morphism k2 binarization {dv}",
                     lambda lam=collapse, d=ones: inv.check_morphism_identity(lam, tau_k2, d)))
    for name, dv in (("a2", (2, 2)), ("k2", (2, 2)), ("k3", (2, 1))):
        d = qi.DimVector({"v": dv[0], "w": dv[1]})
        jobs.append((f"pair {name} {dv}",
                     lambda q=quivers[name], d=d: inv.pair_invariant_report(q, HIGH, d, FRAMING)["ok"]))
    rng.shuffle(jobs)
    return jobs


def run_in_process(jobs: list) -> tuple[float, float, int, list[str]]:
    """One pass over the jobs, the reference loop sampled before each job and
    after the last; returns its time in seconds and in reference seconds,
    jobs attempted and failures."""
    probe = refspeed.Probe()
    probe.sample()
    outputs = []
    wall = 0.0
    for _, thunk in jobs:
        start = time.perf_counter()
        try:
            outputs.append(thunk())
        except Exception as exc:  # a crashing job is a failed job
            outputs.append(exc)
        wall += time.perf_counter() - start
        probe.sample()
    errors = []
    for (label, _), got in zip(jobs, outputs):
        if isinstance(got, Exception):
            errors.append(f"{label}: {type(got).__name__}: {got}")
        elif got is not True:
            errors.append(f"{label}: check returned {got!r}")
    return wall, wall * probe.scale(), len(jobs), errors


# --- cli-cache: each command is its own process -----------------------------


def write_cli_fixtures(workdir: Path) -> dict[str, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, m in (("k2", 2), ("k3", 3)):
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(kronecker_json(m)))
    return paths


def cli_commands(paths: dict[str, Path], seed: int) -> list:
    """(label, arguments, verdict key); commands without a verdict have frozen stdout."""

    def dv(a, b):
        return json.dumps({"v": a, "w": b})

    k2, k3, high, low = str(paths["k2"]), str(paths["k3"]), json.dumps(HIGH), json.dumps(LOW)
    commands = [
        ("invariant k3 3,3 jobs 2",
         ["invariant", "--quiver", k3, "--dimvec", dv(3, 3), "--slope", high, "--jobs", "2"], None),
        ("invariant k3 4,2", ["invariant", "--quiver", k3, "--dimvec", dv(4, 2), "--slope", high], None),
        ("wallcross-check k3 3,2",
         ["wallcross-check", "--quiver", k3, "--dimvec", dv(3, 2), "--slope", high, "--slope2", low],
         "equal"),
        ("pair-check k2 2,2",
         ["pair-check", "--quiver", k2, "--dimvec", dv(2, 2), "--slope", high,
          "--framing", json.dumps(FRAMING)],
         "ok"),
    ]
    random.Random(seed).shuffle(commands)
    return commands


def _verdict(stdout: str, key: str) -> bool:
    try:
        return json.loads(stdout).get(key) is True
    except (ValueError, AttributeError):
        return False


def run_command(args: list[str], spans: Path | None = None) -> tuple[int | None, str]:
    """One CLI process from the checkout root; exit code None on timeout.
    A command with a process pool runs on every CPU, the others on HOME."""
    if spans is None:
        argv = [sys.executable, "-m", "quiverinv.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "cli_entry.py"), str(spans), *args]
    env = dict(os.environ, PYTHONPATH="src")
    if "--jobs" in args:
        refspeed.pin(refspeed.CPUS)
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        refspeed.pin(refspeed.HOME)
    return proc.returncode, proc.stdout


def run_cli(workdir: Path, seed: int, trace: bool) -> tuple[list[float], list[float], int, list[str], list[dict], dict]:
    """Cold then warm pass; each command has its own cache directory.  Returns
    the two pass times in seconds and in reference seconds, the reference
    loop sampled before each command and after the last of its pass."""
    commands = cli_commands(write_cli_fixtures(workdir), seed)
    frozen = json.loads(ORACLE_PATH.read_text())["cli-cache"]
    times, ref_times, errors, aggs = [], [], [], []
    stdout_bytes = 0
    cold_out: dict[str, str] = {}
    for pass_name in ("cold", "warm"):
        spans = [workdir / f"spans-{pass_name}-{i}.json" if trace else None for i in range(len(commands))]
        results = []
        probe = refspeed.Probe()
        probe.sample()
        elapsed = 0.0
        for i, (label, args, _) in enumerate(commands):
            start = time.perf_counter()
            results.append(run_command([*args, "--cache", str(workdir / f"cache-{i}")], spans[i]))
            elapsed += time.perf_counter() - start
            probe.sample()
        times.append(elapsed)
        ref_times.append(elapsed * probe.scale())
        for (label, _, verdict), (rc, out), span_file in zip(commands, results, spans):
            stdout_bytes += len(out.encode())
            if span_file is not None and span_file.exists():
                aggs.append(json.loads(span_file.read_text()))
            if rc != 0:
                errors.append(f"{pass_name} {label}: exit code {rc}")
            elif verdict is None and out != frozen[label]:
                errors.append(f"{pass_name} {label}: stdout differs from the oracle")
            elif verdict is not None and not _verdict(out, verdict):
                errors.append(f"{pass_name} {label}: {verdict} is not true")
            elif pass_name == "warm" and out != cold_out.get(label):
                errors.append(f"warm {label}: stdout differs from the cold pass")
            if pass_name == "cold":
                cold_out[label] = out
    counters = {"cli.processes": 2 * len(commands), "cli.stdout_bytes": stdout_bytes}
    return times, ref_times, 2 * len(commands), errors, aggs, counters


def main(argv: list[str]) -> int:
    mode, workload, workdir = argv[0], argv[1], Path(argv[2])
    seed = int(argv[3]) if mode == "run" else 0
    trace = mode == "run" and argv[4] == "1"
    refspeed.pin(refspeed.HOME)
    counters = {"cli.processes": 0, "cli.stdout_bytes": 0}
    if workload == "cli-cache":
        if mode == "setup":
            import quiverinv.cli  # noqa: F401  -- what every CLI process imports

            write_cli_fixtures(workdir)
            return 0
        raw, (cold, warm), attempted, errors, aggs, counters = run_cli(workdir, seed, trace)
        # ru_maxrss of the children is the largest peak of any one CLI process
        # or pool worker, not the peak of their sum
        result = {"wall_s": cold + warm, "raw_wall_s": sum(raw), "cold_pass_s": cold, "warm_pass_s": warm,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    else:
        import quiverinv as qi

        jobs = identity_check_jobs(qi, seed)
        if mode == "setup":
            return 0
        tr = tracer.install() if trace else None
        raw, wall, attempted, errors = run_in_process(jobs)
        aggs = [tr.aggregate()] if tr else []
        result = {"wall_s": wall, "raw_wall_s": raw,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    result.update(attempted=attempted, failed=len(errors), errors=errors)
    if trace:
        merged = tracer.merge(aggs)
        merged["counters"].update(counters)
        merged["installed"] = sorted(merged["installed"])
        result["trace"] = merged
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
