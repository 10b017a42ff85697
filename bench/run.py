"""endcalc's benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload classify-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every measurement runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured,
untraced: set-up is measured in several fresh workers and reported as
the median, then one worker runs the closed loop for ``--seconds``
(preorder-sweep runs whole passes, one worker each, until the time is
used).  With ``--trace 1`` every workload runs a fixed number of ops in
one worker, each op traced or not by a seeded coin: the traced ops give
the per-layer metrics of BENCHMARK.json, and their throughput against
that of the untraced ops gives the tracing overhead.  The op counts
depend only on ``--seconds``, so counts repeat exactly for a seed.
Spans are written to ``.bench_out/``.

Times are CPU time, not wall time: an op is charged the worker thread's
CPU time, or on cli-cold the user and system time of its CLI process,
and ``setup_s`` is the worker's CPU time when set-up ends.  On a shared
virtual machine the host takes CPU away from the guest in phases that
last minutes; CPU time leaves that out, and for these single-threaded
ops it equals wall time on an idle machine.  Run length is wall time.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the workload, every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5
# Ops of the traced run per second of --seconds, about 3 s of work each;
# the minimum gives every op kind traced rounds in a short run.
PROFILE_OPS_PER_SECOND = {"classify-batch": 120, "preorder-sweep": 80,
                          "flux-suites": 150, "cli-cold": 6}
PROFILE_MIN_OPS = 48
RUN_BUDGET_S = 170  # a run ends within 180 s, hung workers included


class BenchError(Exception):
    pass


def spawn(*args: str, until: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line.

    The worker and the processes it started are killed at ``until``
    (a ``time.monotonic`` value).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(0.0, until - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker %s ran out of time" % (args,))
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure(workload: str, seed: int, seconds: float,
            setup_samples: int = SETUP_SAMPLES):
    """End-to-end metrics, untraced: (metrics, samples, attempted, failed).

    A workload whose stream is one finite pass repeats whole passes, each
    in a fresh worker, until ``seconds`` have gone by.
    """
    until = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn("setup", *common, until=until)["setup_s"]
              for _ in range(setup_samples - 1)]
    deadline = time.monotonic() + seconds
    runs = []
    while not runs or (WORKLOADS[workload].finite
                       and time.monotonic() < deadline):
        runs.append(spawn("timed", *common, "--seconds", str(seconds),
                          until=until))
    setups += [r["setup_s"] for r in runs]
    lat_ms = [s * 1e3 for r in runs for s in r["latencies"]]
    n = len(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": sum(sum(r["units"]) for r in runs) / sum(lat_ms) * 1e3,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    samples = {"setup_s": len(setups), "latency_p50_ms": n,
               "latency_p90_ms": n, "throughput": n}
    if n >= 1000:  # at least ten samples beyond p99
        metrics["latency_p99_ms"] = percentile(lat_ms, 99)
        samples["latency_p99_ms"] = n
    return (metrics, samples, sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs))


def profile(seed: int, seconds: float):
    """Per-layer metrics of every workload: (metrics, attempted, failed)."""
    until = time.monotonic() + RUN_BUDGET_S
    metrics = {}
    attempted = failed = 0
    for workload, rate in PROFILE_OPS_PER_SECOND.items():
        ops = max(PROFILE_MIN_OPS, round(rate * seconds))
        traced = spawn("profile", "--workload", workload, "--seed", str(seed),
                       "--ops", str(ops), until=until)
        metrics.update(traced["layers"])
        attempted += traced["attempted"]
        failed += traced["failed"]
    return metrics, attempted, failed


def load_config() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)


def report(config: dict, metrics: dict, attempted: int, failed: int,
           trace: bool, samples: dict) -> None:
    declared = config["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing and not trace:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    for name in missing:
        print("note %s: not measured (the function no longer exposes it)"
              % name)
    for name, value in metrics.items():
        extra = " (n=%d)" % samples[name] if name in samples else ""
        tag = "metric" if name in units else "info"
        print("%s %s = %r %s%s" % (tag, name, value, units.get(name, ""),
                                   extra))
    print("info fail_ratio = %r (%d of %d ops)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "endcalc" / "__init__.py").is_file():
        print("error: endcalc sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        config = load_config()
        print("env python=%s nproc=%d loadavg=%s"
              % (platform.python_version(), os.cpu_count(),
                 ",".join("%.2f" % x for x in os.getloadavg())))
        if args.trace:
            print("run traced profile of every workload, seed=%d" % args.seed)
            metrics, attempted, failed = profile(args.seed, args.seconds)
            report(config, metrics, attempted, failed, True, {})
            return 0
        why = {w["name"]: w["why"] for w in config["workloads"]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            w = WORKLOADS[name]
            print("workload %s seed=%d op=%s throughput=%s/s clients=1 "
                  "loop=closed why=%s"
                  % (name, args.seed, w.op_unit, w.work_unit, why.get(name)))
            metrics, samples, attempted, failed = measure(
                name, args.seed, args.seconds)
            report(config, metrics, attempted, failed, False, samples)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
