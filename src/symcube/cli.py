"""Command line surface: exact dimension, multiplicity and decomposition
tables on stdout.

Exit codes: 0 success, 1 usage error, 2 computation error (invalid
character input and the like), 3 verification mismatch, 141 closed stdout.
"""

import argparse
import io
import os
import sys
from itertools import groupby
from math import comb

from . import core, oracle  # each _cmd_* imports its own route modules


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    try:
        if "_" not in text and text.isascii() and text == text.strip():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Table:
    # One table on stdout, the only code that spells what tables share: the
    # head (csv header; json opening, with "m" unless m is None), the ", "
    # between json entries and the tail (json total; text total_dim line,
    # which a character has not); json is byte for byte json.dumps.  Text
    # is joined and written once io.DEFAULT_BUFFER_SIZE characters wait, and
    # at close: unbuffered (PYTHONUNBUFFERED), each write is a system call.
    def __init__(self, fmt: str, m: int | None, character: bool = False):
        self.sep = "," if fmt == "csv" else " "  # within a text or csv entry
        self.between = ", " if fmt == "json" else ""
        if fmt == "json":
            key = "total" if character else "total_dim"
            head = ('{"entries": [' if m is None
                    else f'{{"m": {m}, "entries": [')
            self.tail = f'], "{key}": %d}}\n'
        elif fmt == "csv":
            head = "l1,l2,l3,dim\n" if character else "n1,n2,n3,mult\n"
            self.tail = ""
        else:
            head, self.tail = "", "" if character else "total_dim = %d\n"
        self.pending, self.size, self.lead = [head], len(head), ""

    def write(self, entries: str) -> None:
        # whole entries joined by self.between; "" writes nothing
        if entries:
            self.pending.append(text := self.lead + entries)
            self.size += len(text)
            self.lead = self.between
            if self.size >= io.DEFAULT_BUFFER_SIZE:
                sys.stdout.write("".join(self.pending))
                self.pending, self.size = [], 0

    def close(self, total: int) -> None:
        if self.tail:
            self.pending.append(self.tail % total)
        sys.stdout.write("".join(self.pending))


def _render_decomposition(groups, fmt: str, m: int | None = None) -> int:
    # One join per group of (label, mult) rows, which every source gives in
    # descending lexicographic order; returns the total, summed from the rows
    table, total = _Table(fmt, m), 0
    sep = table.sep
    for rows in groups:
        total += sum([x * (n1 + 1) * (n2 + 1) * (n3 + 1)
                      for (n1, n2, n3), x in rows])
        if fmt == "json":
            entries = [f'{{"label": [{n1}, {n2}, {n3}], "mult": {x}}}'
                       for (n1, n2, n3), x in rows]
        else:
            entries = [f"{n1}{sep}{n2}{sep}{n3}{sep}{x}\n"
                       for (n1, n2, n3), x in rows]
        table.write(table.between.join(entries))
    table.close(total)
    return total


def _print_scalar(args, key, triple, columns, field, value) -> None:
    if args.format == "json":
        # byte for byte json.dumps({"m": m, key: [a, b, c], field: value})
        print('{"m": %d, "%s": [%d, %d, %d], "%s": %d}'
              % (args.m, key, *triple, field, value))
    elif args.format == "csv":
        print(f"m,{columns},{field}")
        print(",".join(str(v) for v in (args.m, *triple, value)))
    else:
        print(value)


def _cmd_dim(args) -> int:
    from . import dims

    w = (args.l1, args.l2, args.l3)
    _print_scalar(args, "weight", w, "l1,l2,l3", "dim",
                  dims.dim_weight(args.m, w))
    return 0


def _cmd_mult(args) -> int:
    from . import multiplicity

    label = (args.n1, args.n2, args.n3)
    _print_scalar(args, "label", label, "n1,n2,n3", "mult",
                  multiplicity.multiplicity_sym(args.m, label))
    return 0


def _check_total(name: str, total: int, m: int) -> int:
    # exit code 0 if total is C(m+7, 7), which shares no code with the rows
    if total != (want := comb(m + 7, 7)):
        raise core.VerificationError(
            f"{name} {total} != C(m+7, 7) = {want} at m = {m}")
    return 0


def _cmd_decompose(args) -> int:
    from . import multiplicity

    m = args.m
    total = _render_decomposition(multiplicity.decomposition_rows(m),
                                  args.format, m=m)
    return _check_total("decomposition total_dim", total, m)


def _cmd_character(args) -> int:
    from . import multiplicity

    # (l1, l2) and (l1, -l2) share one % of the template, whose NULs take
    # each line's head
    m, table = args.m, _Table(args.format, args.m, character=True)
    sep, between = table.sep, table.between
    if args.format == "json":
        cells = [f', {l3}], "dim": %d}}' for l3 in range(m, -m - 1, -2)]
        head = '{"weight": [%d, %d'
    else:
        cells = [f"{sep}{l3}{sep}%d\n" for l3 in range(m, -m - 1, -2)]
        head = f"%d{sep}%d"
    template, bodies, total = "\0".join(cells), {}, 0
    for l1, l2, row in multiplicity.character_lines(m):
        total += sum(row)
        if l2 >= 0:
            bodies[l2] = template % tuple(row)
        line_head = head % (l1, l2)
        table.write(line_head
                    + bodies[abs(l2)].replace("\0", between + line_head))
    table.close(total)
    return _check_total("character total", total, m)


def _cmd_greedy(args) -> int:
    from . import characters

    # the entries hold the only reference to the text, freed once read;
    # the file's dimensions, summed as they are read, are the reference of
    # the rendered total
    with open(args.file, encoding="utf-8") as fh:
        entries = core.character_entries(fh.read())
    read = 0

    def summed():
        nonlocal read
        for entry in entries:
            read += entry[2]
            yield entry

    # one group per count row (n1, n2), as decompose writes them
    rows = groupby(characters.decompose_entries(summed()).items(),
                   lambda e: e[0][:2])
    total = _render_decomposition((list(g) for _, g in rows), args.format)
    if total != read:
        raise core.VerificationError(
            f"greedy total_dim {total} != {read}, the sum of the file's "
            f"dimensions")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    top = oracle.MODES[args.mode] if args.max_m is None else args.max_m
    oracle.check_cap(top)
    for check, bound, template in verify.CHECKS:
        print(template.format(depth := bound(top), check(depth)))
    print("all checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symcube",
        description=(
            "Exact weight-space dimensions, multiplicities and irreducible "
            "decompositions of symmetric powers of C2 (x) C2 (x) C2 under "
            "sl2(C) + sl2(C) + sl2(C)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = argparse.ArgumentParser(add_help=False)  # all but verify
    table.add_argument("--format", choices=("text", "json", "csv"),
                       default="text", help="output format (default: text)")
    power = argparse.ArgumentParser(add_help=False, parents=[table])
    power.add_argument("m", type=_nonneg, help="symmetric power")

    for name, func, triple, kind, text in (
            ("dim", _cmd_dim, "l1 l2 l3", _integer,
             "dimension of one weight space of S^m"),
            ("mult", _cmd_mult, "n1 n2 n3", _nonneg,
             "multiplicity of V(n1) (x) V(n2) (x) V(n3) in S^m"),
            ("decompose", _cmd_decompose, "", None,
             "full decomposition table of S^m"),
            ("character", _cmd_character, "", None,
             "dump the character of S^m (weight, dimension)")):
        p = sub.add_parser(name, parents=[power], help=text)
        for arg in triple.split():
            p.add_argument(arg, type=kind)
        p.set_defaults(func=func)

    p = sub.add_parser("greedy", parents=[table], help=(
        "decompose a character file by the greedy algorithm"))
    p.add_argument("file", help="character file: lines 'l1 l2 l3 dim'")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("verify", help=(
        "cross-check the formulas against brute-force counts"))
    p.add_argument("--max-m", type=_nonneg, help=(
        "largest power for the character and decomposition comparisons "
        f"(default: {oracle.MODES['ci']} in ci mode, "
        f"{oracle.MODES['extended']} in extended mode)"))
    p.add_argument("--mode", choices=tuple(oracle.MODES), default="ci",
                   help="preset verification depth (default: ci)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout meets this flush, not the exit's
        return code
    except BrokenPipeError:  # as by `| head`; devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except core.VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
