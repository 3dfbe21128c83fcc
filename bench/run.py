"""The beamsec benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload sweep|datagen|attack_grid --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program runs from its `src`
directory, nothing needs installing. A run repeats whole rounds of the
workload while another is expected to end within `--seconds` (at least
three rounds). Each round is
a fresh worker process (bench/worker.py) that sets up, does the timed part
and checks its outputs. With `--trace 0` the last stdout line carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run:
rounds alternate untraced and traced, and the difference of their wall
times is the tracing overhead. Every round's record, the environment and the
metrics go to bench/out/<workload>-seed<N>-trace<T>/run.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import METRIC_UNITS
from worker import OPERATIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "datagen", "attack_grid")
MIN_ROUNDS = 3  # so that every run sets up three times at least
DEADLINE_S = 170.0  # a run ends well inside the 180 s a run may take

# cpu_s is kept per round in run.json, not reported: single-threaded, it
# tracks wall_s, and its spread between runs of different seeds exceeded
# a tenth on datagen and attack_grid.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    """One BLAS thread, no process pool: result bits depend on the thread
    count, and the workloads run from a single process."""
    env = dict(os.environ)
    env.pop("BEAMSEC_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(workload, seed, out_dir, traced, deadline) -> dict:
    """Start one worker and wait for it; returns its report plus `setup_s`,
    the time from spawn to its `ready` line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--dir", str(out_dir)]
    cmd += ["--trace"] if traced else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "worker ran past the run's deadline"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready":
        return {"error": f"worker failed during set-up (exit {proc.returncode})"}
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}"}
    report = json.loads(lines[-1])
    report["setup_s"] = setup_s
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "beamsec" / "cli.py").is_file():
        print(f"run.py: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    seed = args.seed % 2**32  # the program takes nonnegative seeds
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    rounds = []
    spent = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rep = run_worker(args.workload, seed, out / f"round{len(rounds)}", traced, deadline)
        rep["traced"] = traced
        rounds.append(rep)
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if "ops" not in rep or elapsed + max(spent) > DEADLINE_S:
            break
        # whole rounds only: start another while it is expected to end in time
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.mean(spent) > args.seconds:
            break
    setups = [r["setup_s"] for r in rounds if "setup_s" in r and not r["traced"]]

    ops = OPERATIONS[args.workload]
    attempted = ops * len(rounds)
    failed = sum(r.get("failed", ops) for r in rounds)
    for i, r in enumerate(rounds):
        if "error" in r:
            print(f"round {i} failed: {r['error']}", file=sys.stderr)
    problems = [f"round {i}: {c}" for i, r in enumerate(rounds) for c in r.get("checks", [])]
    try:
        checks.check_reproducible([r["results_sha256"] for r in rounds if "results_sha256" in r])
    except checks.CheckFailed as exc:
        problems.append(str(exc))

    done = [r for r in rounds if "wall_s" in r and not r.get("failed")]
    plain = [r for r in done if not r["traced"]]
    traced_rounds = [r for r in done if r["traced"]]
    median = statistics.median
    values = {}
    if args.trace:
        units = METRIC_UNITS
        if traced_rounds:
            values = {name: median(r["layers"][name] for r in traced_rounds) for name in traced_rounds[0]["layers"]}
        if traced_rounds and plain:
            values["trace.overhead_s"] = median(r["wall_s"] for r in traced_rounds) - median(r["wall_s"] for r in plain)
    else:
        units = END_TO_END_UNITS
        if plain:
            values = {name: median(r[name] for r in plain) for name in ("wall_s", "peak_rss_mb")}
        if setups:
            values["setup_s"] = median(setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}

    env = next((r["env"] for r in rounds if "env" in r), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "setups_s": setups,
        "problems": problems,
        "rounds": rounds,
    }
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
