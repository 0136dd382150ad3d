"""Seeded inputs, expected outputs and output checks for each workload.

A workload is a sequence of cycles; a cycle is a list of operations
whose commands, powers and output formats are fixed by the workload, so
that every cycle costs the same.  The seed picks the order, the spot
checks, the order of the entries in every character file, the random
direct sums and the corruptions.  A run executes a fixed number of whole
cycles, so every run sees the same mix and gives the same number of
timing samples.

Expected values never come from the code path being timed: characters
and decompositions for ``peel-verify`` are built here from first
principles, and spot values for ``tables`` come from
``dim_by_convolution``, evaluated while the operations are generated,
before any of them is timed.
"""

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Callable

# The eight weights (+-1, +-1, +-1) of C2 (x) C2 (x) C2.
BASIS_WEIGHTS = list(product((1, -1), repeat=3))
CORNERS = [
    (offs, -1 if (sum(offs) // 2) % 2 else 1)
    for offs in product((0, 2), repeat=3)
]


@dataclass
class Op:
    """One program invocation.

    ``args`` follow ``symcube``.  ``files`` are written to the working
    directory before the program starts.  ``check`` receives (exit code,
    stdout bytes) and returns OK, or (1, a message describing the
    failure).
    """

    label: str
    args: list
    check: Callable
    files: dict = field(default_factory=dict)


def _rng(workload, seed, cycle):
    return random.Random(f"perfbench:{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------- helpers


def _dim(m, w, conv, memo):
    """Weight-space dimension of S^m at w, via dim_by_convolution."""
    if any(abs(v) > m or (v - m) % 2 for v in w):
        return 0
    k, r, n = sorted(((m - abs(v)) // 2 for v in w), reverse=True)
    key = (m, k, r, n)
    if key not in memo:
        memo[key] = conv(m, k, r, n)
    return memo[key]


def _mult(m, label, conv, memo):
    """Multiplicity of a label in S^m by eight-corner inclusion-exclusion."""
    if any(v > m or (v - m) % 2 for v in label):
        return 0
    n1, n2, n3 = label
    return sum(
        sign * _dim(m, (n1 + d1, n2 + d2, n3 + d3), conv, memo)
        for (d1, d2, d3), sign in CORNERS
    )


def sym_power_character(m):
    """Character of S^m: coefficient of t^m in the product over the basis
    weights v of 1 / (1 - t x^v), expanded degree by degree."""
    layers = [{(0, 0, 0): 1}] + [{} for _ in range(m)]
    for v in BASIS_WEIGHTS:
        for d in range(1, m + 1):
            cur = layers[d]
            for w, count in layers[d - 1].items():
                key = (w[0] + v[0], w[1] + v[1], w[2] + v[2])
                cur[key] = cur.get(key, 0) + count
    return layers[m]


def irrep_character(label):
    n1, n2, n3 = label
    return {
        (a, b, c): 1
        for a in range(n1, -n1 - 1, -2)
        for b in range(n2, -n2 - 1, -2)
        for c in range(n3, -n3 - 1, -2)
    }


def decompose_by_corners(character):
    """Decomposition of a module character by inclusion-exclusion over the
    eight corners of every dominant weight."""
    out = {}
    for (n1, n2, n3) in character:
        if min(n1, n2, n3) < 0:
            continue
        x = sum(
            sign * character.get((n1 + d1, n2 + d2, n3 + d3), 0)
            for (d1, d2, d3), sign in CORNERS
        )
        if x:
            out[(n1, n2, n3)] = x
    return out


def character_file(character, rng, comment):
    """Character file text, entries in a seeded order."""
    entries = sorted(character.items())
    rng.shuffle(entries)
    lines = [f"# {comment}\n"]
    lines += [f"{w[0]} {w[1]} {w[2]} {d}\n" for w, d in entries]
    return "".join(lines).encode("ascii")


def parse_table(stdout, fmt, key):
    """Columns and checksum of a ``decompose``/``greedy``/``character``
    table: (three triple columns, value column, checksum).

    ``key`` names the json field holding the triple ("label" or
    "weight"); the checksum is the text footer or the json total, None
    when the output has neither.
    """
    if fmt == "json":
        doc = json.loads(stdout)
        value = "mult" if key == "label" else "dim"
        entries = doc["entries"]
        triples = [e[key] for e in entries]
        columns = [[t[i] for t in triples] for i in range(3)]
        total = doc.get("total_dim", doc.get("total"))
        return columns, [e[value] for e in entries], total
    body, total = stdout, None
    footer = stdout.rfind(b"total_dim = ")
    if footer >= 0:
        body, total = stdout[:footer], int(stdout[footer + 12:])
    numbers = list(map(int, body.split()))
    if len(numbers) % 4:
        raise ValueError("row with a field count other than four")
    return [numbers[i::4] for i in range(3)], numbers[3::4], total


def _table(columns, values, allowed):
    """Dict of the rows, or None if a triple component is outside
    ``allowed``, a value is not positive, a triple repeats, or two triples
    that differ only by order and signs carry different values (every
    character and every decomposition of S^m is invariant under both)."""
    if not all(set(col) <= allowed for col in columns) or min(values) <= 0:
        return None
    table = dict(zip(zip(*columns), values))
    if len(table) != len(values):
        return None
    for triple, value in table.items():
        if table.get(tuple(sorted(map(abs, triple)))) != value:
            return None
    return table


def _failure(message):
    return 1, message


OK = (0, "")


def spread(ops, rng):
    """Seeded order in which the operations of each label are spread
    evenly over the cycle: the i-th of n operations with a label goes at
    a random point of the i-th n-th of the cycle.  The machine's speed
    drifts during a run, and a plain shuffle can bunch one label into a
    slow stretch; spread out, every label sees the whole run."""
    by_label = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op)
    keyed = []
    for group in by_label.values():
        rng.shuffle(group)
        keyed += [((i + rng.random()) / len(group), op)
                  for i, op in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


# ----------------------------------------------------------------- tables

# (command, power, format).  Three large tables dominate the busy time:
# decompose 100 in json, character 100 in text and character 70 in json.
# The sixteen mid-size ones hold the median (a json character 35) and the
# tail (a run of two cycles has 38 samples, and the 11th-largest is the
# 5th-largest of the eight text character 35 tables).  Powers and formats
# are fixed per slot, so every cycle has the same cost, and the peak
# resident set comes from the same operation in every run.
TABLE_SLOTS = [
    ("decompose", 100, "json"),
    ("character", 100, "text"),
    ("character", 70, "json"),
] + [
    (command, power, fmt)
    for command, power in (("decompose", 45), ("character", 35))
    for fmt in ("text", "json") * 4
]
SPOT_CHECKS = 6


def _check_decompose(m, fmt, spots):
    expected_total = comb(m + 7, 7)

    def check(code, stdout):
        if code != 0:
            return _failure(f"decompose {m}: exit code {code}")
        columns, mults, total = parse_table(stdout, fmt, "label")
        table = _table(columns, mults, set(range(m % 2, m + 1, 2)))
        if table is None:
            return _failure(f"decompose {m}: invalid or repeated row")
        summed = sum(x * (a + 1) * (b + 1) * (c + 1)
                     for (a, b, c), x in table.items())
        if summed != expected_total or total != expected_total:
            return _failure(
                f"decompose {m}: total {summed}/{total} != {expected_total}")
        for label, mult in spots.items():
            if table.get(label, 0) != mult:
                return _failure(f"decompose {m}: label {label} has "
                                f"{table.get(label, 0)}, expected {mult}")
        return OK

    return check


def _check_character(m, fmt, spots):
    expected_total = comb(m + 7, 7)

    def check(code, stdout):
        if code != 0:
            return _failure(f"character {m}: exit code {code}")
        columns, dims, total = parse_table(stdout, fmt, "weight")
        char = _table(columns, dims, set(range(-m, m + 1, 2)))
        if char is None or len(char) != (m + 1) ** 3:
            return _failure(f"character {m}: invalid, repeated or missing "
                            f"rows ({len(dims)} of {(m + 1) ** 3})")
        summed = sum(dims)
        if summed != expected_total or (fmt == "json"
                                        and total != expected_total):
            return _failure(
                f"character {m}: total {summed}/{total} != {expected_total}")
        for w, dim in spots.items():
            if char.get(w, 0) != dim:
                return _failure(f"character {m}: weight {w} has "
                                f"{char.get(w, 0)}, expected {dim}")
        return OK

    return check


def tables_cycle(rng, conv, memo):
    ops = []
    for command, m, fmt in TABLE_SLOTS:
        if command == "decompose":
            labels = [(m, m, m)] + [
                tuple(m - 2 * rng.randint(0, m // 2) for _ in range(3))
                for _ in range(SPOT_CHECKS)
            ]
            spots = {lab: _mult(m, lab, conv, memo) for lab in labels}
            check = _check_decompose(m, fmt, spots)
        else:
            weights = [
                tuple(m - 2 * rng.randint(0, m) for _ in range(3))
                for _ in range(SPOT_CHECKS)
            ]
            spots = {w: _dim(m, w, conv, memo) for w in weights}
            check = _check_character(m, fmt, spots)
        ops.append(Op(f"{command}-{m}-{fmt}", [command, str(m), "--format", fmt],
                      check))
    return spread(ops, rng)


# ------------------------------------------------------------ peel-verify

# Each cycle has thirty-eight operations.  Greedy peels: S^18 three times,
# S^14 twenty times, four random direct sums, and four corrupted
# characters that must be rejected, built from S^15, S^16 and two random
# sums.  Verify runs: six at ci depth, two in each spelling, and one at
# extended depth.  The S^14 peels hold the median, with as many faster
# operations below them as slower ones above; in a run of four cycles
# (152 samples) the 11th-largest is the 7th-largest of the twelve S^18
# peels.  Powers, formats and spellings are fixed per cycle index, so
# every cycle of an index costs the same; the seed orders the operations
# and the entries of every file, and draws the sums and the corruptions.
PEEL_SYM = ((18, 3), (14, 20))
PEEL_SUMS = 4
BAD_SYM_POWERS = (15, 16)
SUM_LABELS = 40
SUM_MAX_COMPONENT = 12


def _check_greedy(name, fmt, expected):
    expected_total = sum(x * (a + 1) * (b + 1) * (c + 1)
                         for (a, b, c), x in expected.items())

    def check(code, stdout):
        if code != 0:
            return _failure(f"{name}: exit code {code}")
        columns, mults, total = parse_table(stdout, fmt, "label")
        found = dict(zip(zip(*columns), mults))
        if found != expected or len(found) != len(mults):
            return _failure(f"{name}: decomposition differs from expected")
        if total != expected_total:
            return _failure(f"{name}: total {total} != {expected_total}")
        return OK

    return check


def _check_rejected(name):
    def check(code, stdout):
        if code != 2 or stdout:
            return _failure(f"{name}: exit code {code} with "
                            f"{len(stdout)} stdout bytes, expected 2 and none")
        return OK

    return check


def _corrupt(character, rng):
    """Change one weight space by one.  The weight has a non-zero
    component, so the result breaks the sign symmetry every module
    character has, and the greedy peel must reject it."""
    out = dict(character)
    w = rng.choice([w for w in sorted(out) if any(w)])
    out[w] += rng.choice((-1, 1))
    if out[w] == 0:
        del out[w]
    return out


def _random_sum(rng):
    labels = Counter(
        tuple(rng.randint(0, SUM_MAX_COMPONENT) for _ in range(3))
        for _ in range(SUM_LABELS)
    )
    char = {}
    for label, mult in labels.items():
        for w in irrep_character(label):
            char[w] = char.get(w, 0) + mult
    return char, dict(labels)


VERIFY_CI = (["verify"], ["verify", "--mode", "ci"], ["verify", "--max-m", "12"])
VERIFY_CI_COPIES = 2
VERIFY_EXTENDED = (["verify", "--mode", "extended"],
                   ["verify", "--mode", "extended", "--max-m", "20"])


def _check_verify(name):
    def check(code, stdout):
        if code != 0 or not stdout.endswith(b"all checks passed\n"):
            return _failure(f"{name}: exit code {code}, stdout {stdout[-60:]!r}")
        return OK

    return check


def peel_verify_cycle(rng, index, sym_cache):
    def sym(m):
        if m not in sym_cache:
            char = sym_power_character(m)
            sym_cache[m] = (char, decompose_by_corners(char))
        return sym_cache[m]

    ops = []

    def add(name, char, expected, fmt="text"):
        path = f"{len(ops)}.char"
        data = character_file(char, rng, name)
        if expected is None:
            check, args = _check_rejected(name), ["greedy", path]
        else:
            check = _check_greedy(name, fmt, expected)
            args = ["greedy", path, "--format", fmt]
        ops.append(Op(name, args, check, files={path: data}))

    for m, copies in PEEL_SYM:
        char, dec = sym(m)
        for i in range(copies):
            add(f"sym{m}", char, dec, ("text", "json")[i % 2])
    for i in range(PEEL_SUMS):
        char, dec = _random_sum(rng)
        add("sum", char, dec, ("text", "json")[i % 2])
    for m in BAD_SYM_POWERS:
        add(f"bad-sym{m}", _corrupt(sym(m)[0], rng), None)
        add("bad-sum", _corrupt(_random_sum(rng)[0], rng), None)
    ops += [Op("verify-ci", list(args), _check_verify("ci"))
            for args in VERIFY_CI for _ in range(VERIFY_CI_COPIES)]
    ops.append(Op("verify-extended", list(VERIFY_EXTENDED[index % 2]),
                  _check_verify("extended")))
    return spread(ops, rng)


# ------------------------------------------------------------- workloads

# Nominal seconds per cycle on a 2-vCPU Xeon VM, output checks included.
# A run of --seconds S makes round(S / CYCLE_SECONDS) whole cycles, at
# least one: the number of cycles, and so every sample count, depends on
# S alone and not on the speed of the program.
CYCLE_SECONDS = {"tables": 23.0, "peel-verify": 11.5}
WORKLOADS = tuple(CYCLE_SECONDS)


class Workload:
    """Seeded cycle generator for one workload."""

    def __init__(self, name, seed, conv):
        self.name, self.seed, self.conv = name, seed, conv
        self.memo, self.sym_cache = {}, {}

    def cycles(self, seconds):
        return max(1, round(seconds / CYCLE_SECONDS[self.name]))

    def cycle(self, index):
        rng = _rng(self.name, self.seed, index)
        if self.name == "tables":
            return tables_cycle(rng, self.conv, self.memo)
        return peel_verify_cycle(rng, index, self.sym_cache)
