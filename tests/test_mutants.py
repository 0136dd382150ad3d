"""A standing catalogue of mutants of the routes that `symcube verify`
checks.  Each mutant replaces one module attribute, as a wrong edit to
that one function would (a wrapper of the real function, or its source
with that one edit), and each case runs verify.CHECKS at ci depth
and asserts which check names the mutant first and with what message.
verify looks each route up on its module when it runs, so the replaced
attribute is the route its checks read.  The test id starts with the
check that names the mutant.
"""

import inspect

import pytest

from symcube import characters, dims, multiplicity, oracle, verify
from symcube.verify import VerificationError

GREEDY = ("greedy (eight-corner sums of the closed-form character) vs "
          "covariant count decompositions differ at m = {}")
ENUMERATION = ("monomial enumeration differs from closed-form character "
               "at m = {}")
COUNT = "count prefix sums differ at m = {}"
DIMENSIONS = ("dimensions diverge at (m, k, r, n) = (2, 1, 1, 1): "
              "closed={} convolution=4 enumerated=4")


def at_power(power, change):
    """A mutant of a route by power whose output, listed, goes through
    change at that power only."""
    def make(real):
        return lambda m: iter(change(list(real(m))) if m == power else real(m))
    return make


def bump(index, n):
    """Add one to the n-th dimension of the line at index."""
    def change(lines):
        l1, l2, row = lines[index]
        lines[index] = (l1, l2, row[:n] + [row[n] + 1] + row[n + 1:])
        return lines
    return change


def count_plane_bumped(real):
    # one count of the plane a = 1 of S^7
    def mutant(m, a):
        rows = list(real(m, a))
        if (m, a) == (7, 1):
            rows[2][3] += 1
        return rows
    return mutant


def top_label_bumped(real):
    def mutant(entries):
        result = real(entries)
        result[next(iter(result))] += 1
        return result
    return mutant


def huge_label_bumped(real):
    # one too high at positive counts of labels above 10^6 with h > 0
    def mutant(m, label):
        x, h = real(m, label), (sum(label) - m) // 2
        return x + (x > 0 and h > 0 and min(label) > 10 ** 6)
    return mutant


def edited(old, new):
    """A mutant that is the real function with the one old of its source
    written new, run with the globals of its module."""
    def make(real):
        source = inspect.getsource(real)
        assert source.count(old) == 1, old
        namespace = dict(vars(inspect.getmodule(real)))
        exec(source.replace(old, new), namespace)
        return namespace[real.__name__]
    return make


def mutant(check, label, module, name, make, message):
    """The case of the mutant make(real) of module.name, which check names
    first with message; its id is check-label."""
    return pytest.param(module, name, make, check, message,
                        id=f"{check}-{label}")


MUTANTS = [
    mutant("check_c2", "c2-5-2-3", dims, "c2",
           lambda real: lambda r1, r2, r3: real(r1, r2, r3) + (
               (r1, r2, r3) == (5, 2, 3)),
           "c2 vs brute force at (r1, r2, r3) = (5, 2, 3)"),
    mutant("check_c2", "c2-off-range", dims, "c2",
           edited("return 0", "return 1"),
           "c2 1 != 0 off the range at (r1, r2, r3) = (0, -1, 0)"),
    mutant("check_dimensions", "_chamber-88r-plus-65", dims, "_chamber",
           edited("88 * r + 64", "88 * r + 65"),
           "48 does not divide _chamber(0, 1)"),
    mutant("check_dimensions", "_wall-plus-1", dims, "_wall",
           lambda real: lambda t: real(t) + 1, "48 does not divide _wall(0,)"),
    mutant("check_dimensions", "_wall-plus-48", dims, "_wall",
           lambda real: lambda t: real(t) + 48, DIMENSIONS.format(2)),
    mutant("check_dimensions", "_wall-reflected", dims, "_wall",
           lambda real: lambda t: real(-t), DIMENSIONS.format(6)),
    mutant("check_dimensions", "_wall-factor-plus-48", dims, "_wall",
           edited("(t - 4)", "(t - 4 + 48)"), DIMENSIONS.format(22)),
    mutant("check_dimensions", "_chamber-88r-plus-112", dims, "_chamber",
           edited("88 * r + 64", "88 * r + 112"), DIMENSIONS.format(5)),
    mutant("check_dimensions", "_closed_form-huge-offset", dims,
           "_closed_form", lambda real: lambda m, k, r, n: real(m, k, r, n)
           + (m > 10 ** 6),
           "dimensions diverge at (m, k, r, n) = (1000000000000, 9, 3, 3): "
           "closed=51 convolution=50"),
    mutant("check_dimensions", "dim_weight-no-parity", dims, "dim_weight",
           edited("a3 > m or (m - a1) % 2 or (m - a2) % 2 or (m - a3) % 2",
                  "a3 > m"),
           "dim_weight 1 != 0 off the support at m = 1, weight (1, 0, -1)"),
    mutant("check_dimensions", "dim_weight-no-range", dims, "dim_weight",
           edited("a3 > m or ", ""),
           "dim_weight -3 != 0 off the support at m = 0, weight (0, -8, 0)"),
    mutant("check_dimensions", "dim_weight-descending", dims, "dim_weight",
           edited("sorted(map(abs, w))", "sorted(map(abs, w), reverse=True)"),
           "dimensions diverge at (m, k, r, n) = (4, 2, 0, 0): closed=-4 "
           "convolution=1 enumerated=1"),
    mutant("check_dimensions", "dim_weight-signed", dims, "dim_weight",
           edited("sorted(map(abs, w))", "sorted(w)"),
           "dimensions diverge at (m, k, r, n) = (3, 1, 1, 1): closed=6 "
           "convolution=5 enumerated=5"),
    mutant("check_corner_sums", "multiplicity_sym-floor", multiplicity,
           "multiplicity_sym", edited("(1 - h) // 2", "(-h) // 2"),
           "multiplicity_sym 1 != eight-corner sum 0 at m = 2, "
           "label (0, 0, 0)"),
    mutant("check_corner_sums", "multiplicity_sym-huge", multiplicity,
           "multiplicity_sym", huge_label_bumped,
           "multiplicity_sym 14 != eight-corner sum 13 at m = 1000000000000, "
           "label (999999999940, 999999999926, 999999999938)"),
    mutant("check_corner_sums", "multiplicity_sym-off-support",
           multiplicity, "multiplicity_sym", edited("return 0", "return 1"),
           "multiplicity_sym 1 != eight-corner sum 0 at m = 0, "
           "label (0, 0, 1)"),
    mutant("check_corner_sums", "multiplicity_sym-no-parity", multiplicity,
           "multiplicity_sym",
           edited("any((v - m) % 2 for v in label)", "False"),
           "multiplicity_sym 1 != eight-corner sum 0 at m = 0, "
           "label (0, 0, 1)"),
    mutant("check_characters", "weight_dimensions-value-9", dims,
           "weight_dimensions", at_power(9, bump(12, 4)),
           ENUMERATION.format(9)),
    mutant("check_characters", "weight_dimensions-line-dropped-7", dims,
           "weight_dimensions", at_power(7, lambda lines: lines[:-1]),
           ENUMERATION.format(7)),
    mutant("check_characters", "enumerated_lines-value-5", oracle,
           "enumerated_lines", at_power(5, bump(7, 2)),
           ENUMERATION.format(5)),
    mutant("check_characters", "character_lines-line-dropped-8",
           multiplicity, "character_lines",
           at_power(8, lambda lines: lines[:-1]), COUNT.format(8)),
    mutant("check_characters", "character_lines-mirror-half", multiplicity,
           "character_lines",
           edited("running[b][:m - half]", "running[b][:half]"),
           COUNT.format(1)),
    mutant("check_characters", "_count_plane-7-1", multiplicity,
           "_count_plane", count_plane_bumped, COUNT.format(7)),
    mutant("check_characters", "decomposition_rows-reversed", multiplicity,
           "decomposition_rows",
           lambda real: lambda m: (row[::-1] for row in real(m)),
           GREEDY.format(3)),
    mutant("check_characters", "decomposition_rows-3-3-1-at-7", multiplicity,
           "decomposition_rows", at_power(7, lambda rows: [
               [(label, x + (label == (3, 3, 1))) for label, x in row]
               for row in rows]),
           GREEDY.format(7)),
    mutant("check_characters", "decompose_entries-top-label", characters,
           "decompose_entries", top_label_bumped, GREEDY.format(0)),
    mutant("check_characters", "decompose_entries-corner-sign", characters,
           "decompose_entries",
           edited("diff.get(t, 0) - d", "diff.get(t, 0) + d"),
           GREEDY.format(2)),
]


def first_failure():
    """(name, message) of the first entry of verify.CHECKS that fails at
    ci depth, as `symcube verify` runs them, or None."""
    top = oracle.MODES["ci"]
    for check, bound, _ in verify.CHECKS:
        try:
            check(bound(top))
        except VerificationError as exc:
            return check.__name__, str(exc)
    return None


@pytest.mark.parametrize("module,name,make,check,message", MUTANTS)
def test_verify_names_the_mutant(monkeypatch, module, name, make, check,
                                 message):
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    assert first_failure() == (check, message)
