"""Command line surface: exact dimension, multiplicity and decomposition
tables on stdout.

Exit codes: 0 success, 1 usage error, 2 computation error (invalid
character input and the like), 3 verification mismatch, 141 closed stdout.
"""

import argparse
import io
import os
import sys
from math import comb

from .characters import decompose_entries
from .core import character_entries
from .dims import dim_weight
from .multiplicity import (character_lines, decomposition_rows,
                           multiplicity_sym)
from .oracle import ENUMERATION_CAP, check_cap
from .verify import CHECKS, VerificationError

# the top power of `symcube verify` by --mode, when --max-m is not given
_DEFAULT_TOP = {"ci": 12, "extended": ENUMERATION_CAP}


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


class _Blocks:
    # Text for stdout, joined and written once at least
    # io.DEFAULT_BUFFER_SIZE characters are pending: each sys.stdout.write
    # is a system call when stdout is unbuffered (PYTHONUNBUFFERED), and
    # the tables come a short line or count row at a time.
    def __init__(self):
        self.pending, self.size = [], 0

    def write(self, text: str) -> None:
        self.pending.append(text)
        self.size += len(text)
        if self.size >= io.DEFAULT_BUFFER_SIZE:
            self.flush()

    def flush(self) -> None:
        sys.stdout.write("".join(self.pending))
        self.pending, self.size = [], 0


def _render_decomposition(groups, fmt: str, m: int | None = None) -> int:
    # One join per group of (label, mult) rows, which every source gives
    # in descending lexicographic order, written in blocks; the json is
    # byte for byte what json.dumps renders for {"m": m (decompose only),
    # "entries": [{"label": [n1, n2, n3], "mult": x}, ...], "total_dim":
    # total}.  Returns the total, summed from the rows, once the last block
    # is written.
    out, total, lead = _Blocks(), 0, ""
    write = out.write
    if fmt == "json":
        write('{"entries": [' if m is None else f'{{"m": {m}, "entries": [')
    elif fmt == "csv":
        write("n1,n2,n3,mult\n")
    sep = "," if fmt == "csv" else " "
    for rows in groups:
        total += sum([x * (n1 + 1) * (n2 + 1) * (n3 + 1)
                      for (n1, n2, n3), x in rows])
        if fmt != "json":
            write("".join([f"{n1}{sep}{n2}{sep}{n3}{sep}{x}\n"
                           for (n1, n2, n3), x in rows]))
        elif rows:
            write(lead + ", ".join([
                f'{{"label": [{n1}, {n2}, {n3}], "mult": {x}}}'
                for (n1, n2, n3), x in rows]))
            lead = ", "
    if fmt == "json":
        write(f'], "total_dim": {total}}}\n')
    elif fmt == "text":
        write(f"total_dim = {total}\n")
    out.flush()
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
    w = (args.l1, args.l2, args.l3)
    _print_scalar(args, "weight", w, "l1,l2,l3", "dim", dim_weight(args.m, w))
    return 0


def _cmd_mult(args) -> int:
    label = (args.n1, args.n2, args.n3)
    _print_scalar(args, "label", label, "n1,n2,n3", "mult",
                  multiplicity_sym(args.m, label))
    return 0


def _check_total(name: str, total: int, m: int) -> int:
    # exit code 0 if total is C(m+7, 7), which shares no code with the rows
    if total != (want := comb(m + 7, 7)):
        raise VerificationError(
            f"{name} {total} != C(m+7, 7) = {want} at m = {m}")
    return 0


def _cmd_decompose(args) -> int:
    m = args.m
    total = _render_decomposition(decomposition_rows(m), args.format, m=m)
    return _check_total("decomposition total_dim", total, m)


def _cmd_character(args) -> int:
    # (l1, l2) and (l1, -l2) share one % of the template, whose NULs take
    # each line's head.  The json is byte for byte json.dumps of {"m": m,
    # "entries": [{"weight": [l1, l2, l3], "dim": d}, ...], "total": sum}.
    m, fmt, out = args.m, args.format, _Blocks()
    if fmt == "json":
        out.write(f'{{"m": {m}, "entries": [')
        cells = [f', {l3}], "dim": %d}}' for l3 in range(m, -m - 1, -2)]
        head, between = '{"weight": [%d, %d', ", "
    else:
        sep = "," if fmt == "csv" else " "
        out.write("l1,l2,l3,dim\n" if fmt == "csv" else "")
        cells = [f"{sep}{l3}{sep}%d\n" for l3 in range(m, -m - 1, -2)]
        head, between = f"%d{sep}%d", ""
    template, bodies, total, lead = "\0".join(cells), {}, 0, ""
    for l1, l2, dims in character_lines(m):
        total += sum(dims)
        if l2 >= 0:
            bodies[l2] = template % tuple(dims)
        line_head = head % (l1, l2)
        out.write(lead + line_head
                  + bodies[abs(l2)].replace("\0", between + line_head))
        lead = between
    if fmt == "json":
        out.write(f'], "total": {total}}}\n')
    out.flush()
    return _check_total("character total", total, m)


def _cmd_greedy(args) -> int:
    # the entries hold the only reference to the text, freed once read;
    # the file's dimensions, summed as they are read, are the reference of
    # the rendered total
    with open(args.file, encoding="utf-8") as fh:
        entries = character_entries(fh.read())
    read = 0

    def summed():
        nonlocal read
        for entry in entries:
            read += entry[2]
            yield entry

    total = _render_decomposition([decompose_entries(summed()).items()],
                                  args.format)
    if total != read:
        raise VerificationError(f"greedy total_dim {total} != {read}, the "
                                f"sum of the file's dimensions")
    return 0


def _cmd_verify(args) -> int:
    top = _DEFAULT_TOP[args.mode] if args.max_m is None else args.max_m
    check_cap(top)
    for check, bound, template in CHECKS:
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

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default: text)",
        )

    p = sub.add_parser("dim", help="dimension of one weight space of S^m")
    p.add_argument("m", type=_nonneg, help="symmetric power")
    p.add_argument("l1", type=_integer)
    p.add_argument("l2", type=_integer)
    p.add_argument("l3", type=_integer)
    add_format(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "mult", help="multiplicity of V(n1) (x) V(n2) (x) V(n3) in S^m"
    )
    p.add_argument("m", type=_nonneg, help="symmetric power")
    p.add_argument("n1", type=_nonneg)
    p.add_argument("n2", type=_nonneg)
    p.add_argument("n3", type=_nonneg)
    add_format(p)
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("decompose", help="full decomposition table of S^m")
    p.add_argument("m", type=_nonneg, help="symmetric power")
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "character", help="dump the character of S^m (weight, dimension)"
    )
    p.add_argument("m", type=_nonneg, help="symmetric power")
    add_format(p)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser(
        "greedy", help="decompose a character file by the greedy algorithm"
    )
    p.add_argument("file", help="character file: lines 'l1 l2 l3 dim'")
    add_format(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser(
        "verify", help="cross-check the formulas against brute-force counts"
    )
    p.add_argument("--max-m", type=_nonneg, help=(
        "largest power for the character and decomposition comparisons "
        f"(default: {_DEFAULT_TOP['ci']} in ci mode, "
        f"{_DEFAULT_TOP['extended']} in extended mode)"))
    p.add_argument(
        "--mode", choices=tuple(_DEFAULT_TOP), default="ci",
        help="preset verification depth (default: ci)",
    )
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
    except VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
