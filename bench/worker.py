"""One measurement in a fresh process; prints its result as one JSON line.

endcalc's recursive helpers keep unbounded process-wide caches, so each
measurement gets a process of its own, as a CLI or test run would.

Modes:
  setup    build the inputs, report when set-up ended, exit
  timed    set up, run ops untraced until --seconds or the stream ends
  profile  set up traced, run the first --ops ops, about half of them traced
"""

from __future__ import annotations

import argparse
import json
import time

from tracer import Tracer
from workloads import ROOT, TRACED, WORKLOADS, Pass, closed_loop


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "timed", "profile"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--ops", type=int, default=1)
    args = p.parse_args()

    tracer = None
    if args.mode == "profile":
        tracer = Tracer(args.seed)
        tracer.install(TRACED)  # before set-up, which may call endcalc
    workload = WORKLOADS[args.workload](args.seed)
    result = {"setup_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(result))
        return
    if args.mode == "timed":
        # memory is read after a fixed number of ops, so that a faster
        # program is not charged for the extra inputs it gets through
        deadline = time.monotonic() + args.seconds
        stream = workload.stream()
        done = closed_loop(stream, seconds=args.seconds,
                           max_ops=workload.rss_ops, clock=workload.op_clock)
        result["peak_rss_mb"] = workload.peak_rss_mb()
        rest = closed_loop(stream, seconds=deadline - time.monotonic(),
                           clock=workload.op_clock)
        done = Pass(done.latencies + rest.latencies, done.units + rest.units,
                    done.failed + rest.failed)
        result.update(latencies=done.latencies, units=done.units)
    else:
        done = closed_loop(workload.profile_stream(), max_ops=args.ops,
                           tracer=tracer)
        layers = workload.layer_metrics(tracer)
        layers["trace.overhead." + args.workload] = (
            done.throughput(traced=False) / done.throughput(traced=True))
        result["layers"] = layers
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / ("spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    result.update(attempted=len(done.latencies),
                  failed=done.failed + workload.finish())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
