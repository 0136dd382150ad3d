"""Self-tests of the benchmark harness (not of symcube).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs byte for byte, that every output
check catches a tampered output, that the reference characters built
here agree with the program on small powers, and that a traced run
repeats its call counts exactly.  Takes about a minute.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from symcube import cli, decompose_symmetric_power, dim_by_convolution  # noqa: E402


def inputs(name, seed, cycles=2):
    """Everything the program receives in the first cycles, as bytes."""
    w = workloads.Workload(name, seed, dim_by_convolution)
    ops = [op for i in range(cycles) for op in w.cycle(i)]
    return json.dumps([
        [op.args, {k: v.hex() for k, v in sorted(op.files.items())}]
        for op in ops
    ]).encode()


def program_output(args):
    """(exit code, stdout bytes) of symcube ARGS, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, buf.getvalue().encode()


def first_op(name, label_prefix, seed=3):
    w = workloads.Workload(name, seed, dim_by_convolution)
    return next(op for op in w.cycle(0) if op.label.startswith(label_prefix))


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(inputs(name, 7), inputs(name, 7))
                self.assertNotEqual(inputs(name, 7), inputs(name, 8))

    def test_cycles_of_an_index_run_the_same_commands(self):
        """The seed changes the order, the files and the spot checks, but
        not the commands, powers and formats of a cycle."""
        def commands(seed, index):
            w = workloads.Workload(name, seed, dim_by_convolution)
            return sorted(" ".join(a for a in op.args if not a.endswith(".char"))
                          for op in w.cycle(index))

        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(commands(7, 0), commands(8, 0))
                self.assertEqual(commands(7, 1), commands(9, 3))

    def test_cycle_count_depends_on_seconds_only(self):
        for name, nominal in workloads.CYCLE_SECONDS.items():
            w = workloads.Workload(name, 7, dim_by_convolution)
            self.assertEqual(w.cycles(1), 1)
            self.assertEqual(w.cycles(4 * nominal), 4)


class TamperTest(unittest.TestCase):
    def assert_caught(self, op, code, stdout):
        failed, message = op.check(code, stdout)
        self.assertGreater(failed, 0)
        self.assertTrue(message)

    def assert_passes(self, op, code, stdout):
        self.assertEqual(op.check(code, stdout), workloads.OK)

    def table_ops(self, label):
        """One operation of each output format with the given label."""
        w = workloads.Workload("tables", 3, dim_by_convolution)
        by_format = {op.args[-1]: op for op in w.cycle(0)
                     if op.label.startswith(label)}
        self.assertEqual(set(by_format), {"text", "json"})
        return by_format.values()

    def test_decompose_table(self):
        for op in self.table_ops("decompose-45"):
            code, out = program_output(op.args)
            self.assert_passes(op, code, out)
            self.assert_caught(op, 2, out)
            if "json" in op.args:
                doc = json.loads(out)
                doc["entries"][-1]["mult"] += 1
                self.assert_caught(op, code, json.dumps(doc).encode())
            else:
                first, rest = out.split(b"\n", 1)
                n1, n2, n3, mult = first.split()
                tampered = b" ".join([n1, n2, n3, str(int(mult) + 1).encode()])
                self.assert_caught(op, code, tampered + b"\n" + rest)

    def test_character_table(self):
        for op in self.table_ops("character-35"):
            code, out = program_output(op.args)
            self.assert_passes(op, code, out)
            self.assert_caught(op, code, self.move_one(out, "json" in op.args))
            if "text" in op.args:
                self.assert_caught(op, code, out.split(b"\n", 1)[1])

    @staticmethod
    def move_one(out, is_json):
        """Move one unit of dimension between two weight spaces, keeping
        the total and every entry positive."""
        if is_json:
            doc = json.loads(out)
            big = [e for e in doc["entries"] if e["dim"] > 1]
            big[0]["dim"] += 1
            big[-1]["dim"] -= 1
            return json.dumps(doc).encode()
        rows = [row.split() for row in out.splitlines()]
        big = [row for row in rows if int(row[3]) > 1]
        big[0][3] = str(int(big[0][3]) + 1).encode()
        big[-1][3] = str(int(big[-1][3]) - 1).encode()
        return b"\n".join(b" ".join(row) for row in rows) + b"\n"

    def test_greedy_decomposition(self):
        op = first_op("peel-verify", "sym")
        (name, data), = op.files.items()
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            path = Path(tmp) / name
            path.write_bytes(data)
            code, out = program_output(
                [str(path) if arg == name else arg for arg in op.args])
        self.assert_passes(op, code, out)
        if "json" in op.args:
            doc = json.loads(out)
            del doc["entries"][0]
            self.assert_caught(op, code, json.dumps(doc).encode())
        else:
            self.assert_caught(op, code, out.split(b"\n", 1)[1])

    def test_rejected_character(self):
        op = first_op("peel-verify", "bad")
        self.assert_passes(op, 2, b"")
        self.assert_caught(op, 0, b"0 0 0 1\ntotal_dim = 1\n")

    def test_verify(self):
        op = first_op("peel-verify", "verify-ci")
        self.assert_passes(op, 0, b"all checks passed\n")
        self.assert_caught(op, 3, b"")
        self.assert_caught(op, 0, b"")


class ReferenceTest(unittest.TestCase):
    def test_reference_decomposition_matches_program(self):
        for m in range(11):
            char = workloads.sym_power_character(m)
            self.assertEqual(sum(char.values()), comb(m + 7, 7))
            self.assertEqual(workloads.decompose_by_corners(char),
                             decompose_symmetric_power(m))

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        value, pct = run.tail([float(i) for i in range(100)])
        self.assertEqual((value, pct), (89.0, 90.0))


class TraceTest(unittest.TestCase):
    def test_call_counts_repeat_for_the_same_seed(self):
        first, second = (run.run("peel-verify", 5, 1, trace=1)
                         for _ in range(2))
        self.assertTrue(first["correct"])
        counts = [
            {k: v["value"] for k, v in rec["metrics"].items()
             if k.endswith(".calls")}
            for rec in (first, second)
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(sum(counts[0].values()), 0)


if __name__ == "__main__":
    unittest.main()
