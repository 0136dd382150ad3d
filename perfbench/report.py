"""Run every workload, timed and traced, and print each metric with its unit.

    python3 perfbench/report.py [--seed N]

Prints, per workload, the end-to-end metrics of a timed run of
``run_seconds`` from BENCHMARK.json (plus fail_frac and the tail
percentile with its sample count) and then the per-layer metrics of a
traced run.  Takes about four minutes.
"""

import argparse
import json
import sys

import run
import workloads


def show(record, skip_zero):
    for name, metric in record["metrics"].items():
        value = metric["value"]
        if skip_zero and not value:
            continue
        print(f"  {name:48s} {value:>16.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in workloads.WORKLOADS:
        timed = run.run(name, args.seed, seconds, trace=0)
        details = timed["details"]
        print(f"{name}: seed {args.seed}, {timed['attempted']} operations, "
              f"{timed['failed']} failed, {details['cycles']} cycles, "
              f"{details['samples']} samples, op_tail_s is "
              f"p{details['tail_percentile']:.3f} of {details['samples']}")
        show(timed, skip_zero=False)
        print(f"  {'fail_frac':48s} {details['fail_frac']:>16.6g} ratio")
        for message in details["failures"]:
            print(f"  FAILED {message}")
        traced = run.run(name, args.seed, seconds, trace=1)
        print(f"{name} traced: {traced['details']['traced_ops']} operations, "
              f"{traced['failed']} failed (metrics that read 0 omitted)")
        show(traced, skip_zero=True)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
