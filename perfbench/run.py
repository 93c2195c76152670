"""Layered benchmark of quiverinv.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads (closed loop, one client, no
warm-up; every repetition is a fresh interpreter, so each pays the
module-level memos cold, as a CLI user does):

  identity-checks  check_wallcross on four seeded K3 slope pairs at (2,2),
                   (3,2), (2,3); the K2 binarization morphism identity at
                   (2,1), (2,2); the framed-pair identity on A2 (2,2),
                   K2 (2,2), K3 (2,1).
  cli-cache        four `python -m quiverinv.cli` commands, each its own
                   process with its own fresh --cache directory, then the
                   same four again reading that cache.

Each repetition (perfbench/worker.py) runs the job list once.
Repetitions start until --seconds of measured time have passed, and
there are always at least two.  With --trace 0, the run also makes
three set-up samples, before the first three repetitions; each is the
median of five back-to-back set-up launches (interpreter start, import
quiverinv, fixtures).  The end-to-end metrics are medians over the
samples and repetitions.  Times are in reference seconds: measured
seconds scaled by the host's speed on a fixed loop sampled between the
jobs (see refspeed.py).
With --trace 1 the run alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (see tracer.py) with
the tracing overhead.  Every output is checked against oracle.json;
failures count in `failed`.  The last stdout line is the JSON result;
the lines before it give quartiles and sample counts.
See README.md for the metric definitions and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed
import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("identity-checks", "cli-cache")
TIME_LIMIT_S = 170  # the whole run, set-up included
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 3  # set-up samples per run
SETUP_LAUNCHES = 5  # back-to-back launches per sample; the sample is their median
LAUNCH_MARGIN_S = 10  # start no set-up launch closer than this to the deadline


def _worker(args: list[str], deadline: float) -> tuple[int, str, str]:
    """Run worker.py; on the deadline kill its whole process group."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    finally:
        if proc.poll() is None:  # timeout or SIGTERM: take the CLI children too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out, err


def _setup_sample(workload: str, workdir: Path, deadline: float) -> tuple[float | None, str]:
    """Median wall time, in reference seconds, of back-to-back fresh launches
    that only import and build fixtures, the reference loop sampled before
    each launch and after the last; (None, reason) if a launch fails or the
    deadline nears.  The launches and the loop run on HOME."""
    refspeed.pin(refspeed.HOME)  # the launches inherit it
    probe = refspeed.Probe()
    times = []
    try:
        probe.sample()
        for i in range(SETUP_LAUNCHES):
            if deadline - time.monotonic() < LAUNCH_MARGIN_S:
                return None, "deadline reached during set-up"
            start = time.perf_counter()
            try:
                rc, _, err = _worker(["setup", workload, str(workdir / str(i))], deadline)
            except subprocess.TimeoutExpired:
                return None, "set-up launch timed out"
            finally:
                elapsed = time.perf_counter() - start
                shutil.rmtree(workdir, ignore_errors=True)
            if rc != 0:
                return None, f"set-up failed: {err.strip()[-500:]}"
            times.append(elapsed)
            probe.sample()
    finally:
        refspeed.pin(refspeed.CPUS)  # so the repetitions may use every CPU
    return statistics.median(times) * probe.scale(), ""


def _repetition(workload: str, workdir: Path, seed: int, trace: bool, deadline: float) -> dict:
    """One worker run; a crash or timeout gives a result marked crashed."""
    try:
        _, out, err = _worker(["run", workload, str(workdir), str(seed), "1" if trace else "0"], deadline)
        return json.loads(out.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        return {"crashed": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the cleanup below runs

    root = Path.cwd()
    if not (root / "src" / "quiverinv" / "__init__.py").is_file():
        print("run from a repository root that holds src/quiverinv", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup: list[float] = []
    reps: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    measured = 0.0
    n = 0
    setup_failed = False

    def setup_sample() -> None:
        nonlocal attempted, failed, setup_failed
        value, reason = _setup_sample(args.workload, work / f"setup-{len(setup)}", deadline)
        if value is None:
            print(reason, file=sys.stderr)
            attempted, failed, setup_failed = attempted + 1, failed + 1, True
        else:
            setup.append(value)

    # Repetitions start until --seconds of measured time have passed, and
    # every run makes at least two.  Set-up samples sit between the first
    # repetitions, outside the measured time, so they sample the same
    # machine load.  The traced run alternates untraced and traced
    # repetitions, so the overhead compares runs made under the same load.
    while (n < 2 or measured < args.seconds) and time.monotonic() < deadline:
        trace = bool(args.trace) and n % 2 == 1
        if not args.trace and len(setup) < SETUP_SAMPLES and not setup_failed:
            setup_sample()
        began = time.perf_counter()
        result = _repetition(args.workload, work / f"rep-{n}", args.seed, trace, deadline)
        measured += time.perf_counter() - began
        n += 1
        if "crashed" in result:
            print(f"repetition {n} crashed: {result['crashed']}", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        for err in result["errors"]:
            print(f"repetition {n}: {err}", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        reps[trace].append(result)
    # a run of fewer repetitions than samples takes the rest here
    while not args.trace and len(setup) < SETUP_SAMPLES and not setup_failed:
        setup_sample()

    samples = {key: [r[key] for r in reps[False]] for key in ("wall_s", "raw_wall_s", "peak_rss_mib")}
    metrics: dict[str, dict] = {}
    if not args.trace:
        samples["setup_s"] = setup
        for name, unit in END_TO_END.items():
            values = samples[name]
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            print(f"{args.workload} {name}: median {med:.6g} {unit}"
                  f" (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
            metrics[name] = {"value": med, "unit": unit}
        if samples["raw_wall_s"]:
            print(f"{args.workload} raw wall_s, in seconds: median {statistics.median(samples['raw_wall_s']):.6g} s")
    elif reps[True]:
        per_rep = [tracer.layer_metrics(r["trace"]) for r in reps[True]]
        traced_wall = statistics.median(r["wall_s"] for r in reps[True])
        units = {name: unit for m in per_rep for name, (_, unit) in m.items()}
        for name, unit in units.items():
            values = [m[name][0] for m in per_rep if name in m]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        if reps[False]:
            overhead = traced_wall - statistics.median(samples["wall_s"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            # the CLI passes, untraced; 0 on workloads that start no CLI process
            for name in ("cold_pass_s", "warm_pass_s"):
                values = [r.get(name, 0.0) for r in reps[False]]
                metrics[f"cli.{name}"] = {"value": statistics.median(values), "unit": "s"}
        coverage = statistics.median(tracer.covered_s(r["trace"]) / r["raw_wall_s"] for r in reps[True])
        metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
        print(f"{args.workload} traced wall_s: median {traced_wall:.6g} s (n={len(reps[True])}),"
              f" untraced n={len(samples['wall_s'])}")
        for name, metric in metrics.items():
            print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} ops_failed: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
