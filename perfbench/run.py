"""symcube benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is the checkout's
``src/symcube``, started as ``python -m symcube.cli`` (or through
``probe.py`` for traced runs).  One closed-loop client drives one
program process at a time.  --seconds fixes the number of whole cycles
a run makes (workloads.CYCLE_SECONDS), so the program's speed does not
change how many samples a metric is taken over.  The last line of
stdout is a JSON object with the keys correct, attempted, failed and
metrics; the line before it is the full record (seed, environment,
sample counts, tail percentile, fail_frac).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
SETUP_SAMPLES = 24


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYMCUBE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Result(NamedTuple):
    wall: float  # seconds from spawn to exit
    code: int
    out: bytes
    stderr: str
    rss_mb: float  # ru_maxrss from wait4


class Runner:
    """Starts program processes, one at a time, through spawner.py in a
    scratch directory inside the checkout, and measures each from spawn
    to exit."""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.err_path = self.workdir / "stderr.txt"
        self.written = {}  # input files already in workdir: name -> bytes
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def spawn(self, argv):
        """Run argv to completion."""
        request = {"argv": argv, "cwd": str(self.workdir),
                   "stderr": str(self.err_path)}
        self.spawner.stdin.write(json.dumps(request).encode() + b"\n")
        self.spawner.stdin.flush()
        pipe, chunks = self.spawner.stdout, []
        while size := int.from_bytes(pipe.read(4), "big"):
            chunks.append(pipe.read(size))
        header = pipe.readline()
        if not header:
            raise RuntimeError("spawner exited")
        done = json.loads(header)
        return Result(done["wall"], done["code"], b"".join(chunks),
                      self.err_path.read_text(errors="replace"),
                      done["maxrss_kb"] / 1024)

    def argv(self, op, trace_out=None):
        if trace_out:
            return [sys.executable, str(PROBE), "--trace", trace_out, "cli",
                    *op.args]
        return [sys.executable, "-m", "symcube.cli", *op.args]

    def execute(self, op, trace_out=None):
        """Run one operation and check its output: (Result, 1 if it
        failed else 0, failure message)."""
        for name, data in op.files.items():
            if self.written.get(name) is not data:
                (self.workdir / name).write_bytes(data)
                self.written[name] = data
        result = self.spawn(self.argv(op, trace_out))
        try:
            failed, message = op.check(result.code, result.out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failed, message = 1, f"{op.label}: unreadable output ({exc})"
        if failed and result.stderr:
            message += f"; stderr: {result.stderr.strip()[-300:]}"
        return result, failed, message

    def setup_sample(self):
        """Wall time of a fresh interpreter importing symcube."""
        result = self.spawn([sys.executable, "-c", "import symcube"])
        if result.code != 0:
            raise RuntimeError(f"import symcube failed: {result.stderr.strip()}")
        return result.wall


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven): (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(runner, workload, seconds):
    """A fixed number of whole cycles.  The set-up samples are spread
    over the run, one before every few operations, so that their median
    is not taken in a single moment of the machine."""
    ops = [op for index in range(workload.cycles(seconds))
           for op in workload.cycle(index)]
    runner.setup_sample()  # byte-compile once, as an installed copy would be
    every = max(1, len(ops) // SETUP_SAMPLES)
    setup, samples, failed, peak, busy = [], [], 0, 0.0, 0.0
    messages, by_label = [], {}
    start = perf_counter()
    for i, op in enumerate(ops):
        if i % every == 0:
            setup.append(runner.setup_sample())
        result, bad, message = runner.execute(op)
        failed += bad
        peak = max(peak, result.rss_mb)
        busy += result.wall
        if bad:
            messages.append(message)
        else:
            samples.append(result.wall)
            by_label.setdefault(op.label, []).append(result.wall)
    elapsed = perf_counter() - start
    if not samples:
        raise RuntimeError("every operation failed: " + "; ".join(messages[:3]))
    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": ((len(ops) - failed) / busy, "1/s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    details = {
        "cycles": workload.cycles(seconds), "elapsed_s": elapsed,
        "busy_s": busy, "samples": len(samples), "setup_samples": len(setup),
        "tail_percentile": tail_pct, "fail_frac": failed / len(ops),
        "failures": messages[:10],
        "op_p50_s_by_label": {label: statistics.median(walls)
                              for label, walls in sorted(by_label.items())},
    }
    return metrics, len(ops), failed, details


def layer_metrics(summaries, out_bytes, overhead):
    """Per-layer metrics from the trace summaries of every traced process."""
    stats = {f"{mod}.{func}": [0, 0.0, 0.0] for mod, func in tracing.TRACED}
    distinct = nonzero = 0
    for summary in summaries:
        for edge in summary["edges"]:
            row = stats[edge["name"]]
            row[0] += edge["calls"]
            row[1] += edge["self_s"]
            row[2] += edge["total_s"]
        distinct += summary["closed_form_distinct"]
        nonzero += summary["multiplicity_nonzero"]
    metrics = {}
    for name, (calls, self_s, total_s) in stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.total_s"] = (total_s, "s")
    closed_form_calls = stats["dims.dim_closed_form"][0]
    mult_calls = stats["multiplicity.multiplicity_sym"][0]
    metrics["dims.dim_closed_form.distinct_ratio"] = (
        distinct / closed_form_calls if closed_form_calls else 0.0, "ratio")
    metrics["multiplicity.labels_kept_ratio"] = (
        nonzero / mult_calls if mult_calls else 0.0, "ratio")
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def traced_run(runner, workload):
    """Run the first cycle twice per operation, plain then traced.  The
    cycle is fixed by the seed, so the call counts repeat exactly."""
    trace_path = str(runner.workdir / "trace.json")
    summaries, out_bytes, plain_s, traced_s = [], 0, 0.0, 0.0
    attempted = failed = 0
    messages = []
    for op in workload.cycle(0):
        plain, bad, message = runner.execute(op)
        plain_s += plain.wall
        Path(trace_path).unlink(missing_ok=True)
        traced, bad_traced, message_traced = runner.execute(op, trace_path)
        traced_s += traced.wall
        if Path(trace_path).is_file():
            summaries.append(json.loads(Path(trace_path).read_text()))
        elif not bad_traced:
            bad_traced, message_traced = 1, f"{op.label}: no trace"
        attempted += 2
        failed += bad + bad_traced
        messages += [m for m in (message, message_traced) if m]
        out_bytes += len(traced.out)
    metrics = layer_metrics(summaries, out_bytes, traced_s / plain_s)
    details = {"traced_ops": attempted // 2, "plain_s": plain_s,
               "traced_s": traced_s, "fail_frac": failed / attempted,
               "failures": messages[:10]}
    return metrics, attempted, failed, details


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run(name, seed, seconds, trace):
    """Full record of one run; raises if the program cannot be run."""
    if not (SRC / "symcube" / "__init__.py").is_file():
        raise FileNotFoundError(f"no symcube sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from symcube import dim_by_convolution

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "git_sha": git_sha(),
           "loadavg_start": os.getloadavg()}
    workload = workloads.Workload(name, seed, dim_by_convolution)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(workdir)
        try:
            if trace:
                metrics, attempted, failed, details = traced_run(
                    runner, workload)
            else:
                metrics, attempted, failed, details = timed_run(
                    runner, workload, seconds)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details, "environment": env,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the scratch directory
    # is removed and the spawner is waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for message in record["details"]["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
