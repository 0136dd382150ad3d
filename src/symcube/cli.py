"""Command line surface: exact dimension, multiplicity and decomposition
tables on stdout.

Exit codes: 0 success, 1 usage error, 2 computation error (invalid
character input and the like), 3 verification mismatch, 141 closed stdout.
"""

import gc
import io
import os
import sys
from itertools import compress, groupby
from math import comb
from types import SimpleNamespace

from . import core  # each _cmd_* imports its own route modules


class UsageError(Exception):
    pass


def _integer(text: str) -> int:
    try:
        if "_" not in text and text.isascii() and text == text.strip():
            return int(text)
    except ValueError:
        pass
    raise UsageError(f"not an ASCII decimal integer: {text!r}")


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise UsageError(f"must be non-negative, got {value}")
    return value


class _Table:
    # One table on stdout, the only code that spells one: the head (csv
    # header; json opening, with "m" unless m is None), each entry, the ", "
    # between json entries and the tail (json total; text total_dim line,
    # which a character has not); json is byte for byte json.dumps.  An
    # entry is a line head, which spells its first two components, and a
    # cell, which spells the third (formatted in by cell % t3) and the
    # value.  Text is joined and written once io.DEFAULT_BUFFER_SIZE
    # characters wait, and at close: unbuffered (PYTHONUNBUFFERED), each
    # write is a system call.
    def __init__(self, fmt: str, m: int | None, character: bool = False):
        key, value, col = (("weight", "dim", "l") if character
                           else ("label", "mult", "n"))
        if fmt == "json":
            head = ('{"entries": [' if m is None
                    else f'{{"m": {m}, "entries": [')
            self.line, self.cell, self.between = (
                f'{{"{key}": [%d, %d', f', %d], "{value}": %%d}}', ", ")
            self.tail = f'], "{"total" if character else "total_dim"}": %d}}\n'
        else:
            sep = "," if fmt == "csv" else " "
            self.line, self.cell, self.between = (
                f"%d{sep}%d", f"{sep}%d{sep}%%d\n", "")
            head = f"{col}1,{col}2,{col}3,{value}\n" * (fmt == "csv")
            self.tail = "" if character or fmt == "csv" else "total_dim = %d\n"
        self.pending, self.size, self.lead = [head], len(head), ""

    def write(self, t1: int, t2: int, body: str) -> None:
        # body: cells joined by NULs, each of which takes the line head of
        # (t1, t2); "" writes nothing
        if body:
            line = self.line % (t1, t2)
            self.pending.append(text := self.lead + line + body.replace(
                "\0", self.between + line))
            self.size += len(text)
            self.lead = self.between
            if self.size >= io.DEFAULT_BUFFER_SIZE:
                sys.stdout.write("".join(self.pending))
                self.pending, self.size = [], 0

    def counts(self, n1: int, n2: int, n3s: list[int], xs: list[int]) -> int:
        # one count row of a decomposition, its labels (n1, n2, n3) of
        # multiplicities xs != 0; returns their dimension
        self.write(n1, n2, "\0".join([self.cell % n3 for n3 in n3s])
                   % tuple(xs))
        return (n1 + 1) * (n2 + 1) * sum([(n3 + 1) * x
                                          for n3, x in zip(n3s, xs)])

    def close(self, total: int) -> None:
        if self.tail:
            self.pending.append(self.tail % total)
        sys.stdout.write("".join(self.pending))


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

    # each count row's cells are formatted from its own non-zero entries,
    # not taken from all m/2 + 1 cells, 500,001 strings held at m = 10^6
    m, total = args.m, 0
    table, values = _Table(args.format, m), range(m, -1, -2)
    for n1, n2, row in multiplicity.decomposition_rows(m):
        total += table.counts(n1, n2, list(compress(values, row)),
                              list(filter(None, row)))
    table.close(total)
    return _check_total("decomposition total_dim", total, m)


def _cmd_character(args) -> int:
    from . import multiplicity

    # (l1, l2) and (l1, -l2) share one body, formatted and summed at l2 >= 0;
    # character_lines refuses m above its cap at once, before the cells
    m, lines = args.m, multiplicity.character_lines(args.m)
    table = _Table(args.format, m, character=True)
    template = "\0".join([table.cell % l3 for l3 in range(m, -m - 1, -2)])
    bodies, total = {}, 0
    for l1, l2, row in lines:
        if l2 >= 0:
            total += sum(row) * (2 if l2 else 1)
            bodies[l2] = template % tuple(row)
        table.write(l1, l2, bodies[abs(l2)])
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

    # one line per count row (n1, n2), as decompose writes them
    table, total = _Table(args.format, None), 0
    for (n1, n2), group in groupby(characters.decompose_entries(
            summed()).items(), lambda e: e[0][:2]):
        labels, xs = zip(*group)
        total += table.counts(n1, n2, [t[2] for t in labels], list(xs))
    table.close(total)
    if total != read:
        raise core.VerificationError(
            f"greedy total_dim {total} != {read}, the sum of the file's "
            f"dimensions")
    return 0


def _cmd_verify(args) -> int:
    from . import oracle, verify

    top = oracle.MODES[args.mode] if args.max_m is None else args.max_m
    core.check_cap(top, oracle.ENUMERATION_CAP, "oracle")
    for line in verify.report(top):
        print(line)
    print("all checks passed")
    return 0


def _choice(text: str, choices: tuple) -> str:
    if text in choices:
        return text
    raise UsageError(f"invalid choice: {text!r} (choose from "
                     f"{', '.join(map(repr, choices))})")


def _mode(text: str) -> str:
    from . import oracle

    return _choice(text, tuple(oracle.MODES))


# the type of each argument that a command of _COMMANDS names
_TYPES = {"m": _nonneg, "l1": _integer, "l2": _integer, "l3": _integer,
          "n1": _nonneg, "n2": _nonneg, "n3": _nonneg, "file": str,
          "--format": lambda text: _choice(text, ("text", "json", "csv")),
          "--max-m": _nonneg, "--mode": _mode}
_COMMANDS = {  # name: (handler, positionals, options, help)
    "dim": (_cmd_dim, "m l1 l2 l3", "--format",
            "dimension of one weight space of S^m"),
    "mult": (_cmd_mult, "m n1 n2 n3", "--format",
             "multiplicity of V(n1) (x) V(n2) (x) V(n3) in S^m"),
    "decompose": (_cmd_decompose, "m", "--format",
                  "full decomposition table of S^m"),
    "character": (_cmd_character, "m", "--format",
                  "dump the character of S^m (weight, dimension)"),
    "greedy": (_cmd_greedy, "file", "--format", "decompose a character "
               "file, lines 'l1 l2 l3 dim', by the greedy algorithm"),
    "verify": (_cmd_verify, "", "--max-m --mode",
               "cross-check the formulas against brute-force counts\n"
               "      --max-m MAX_M  largest power for the character and "
               "decomposition\n        comparisons (default: {ci} in ci "
               "mode, {extended} in extended mode)\n      --mode MODE  "
               "preset verification depth, ci or extended (default: ci)"),
}
_USAGE = """usage: symcube COMMAND ARGUMENT... [--OPTION VALUE]...

Exact weight-space dimensions, multiplicities and irreducible
decompositions of symmetric powers of C2 (x) C2 (x) C2 under
sl2(C) + sl2(C) + sl2(C).  m is the power; every command but verify
takes --format FORMAT, one of text, json and csv (default: text).

commands:
"""


def _is_option(token: str) -> bool:
    # "--" is one; "-" and "-" then decimal digits are arguments
    return token[:1] == "-" and token != "-" and not token[1:].isdecimal()


def _parse(argv: list[str]):
    """(handler, arguments) of ``symcube COMMAND ...`` by the README's
    rules; -h or --help before any "--" prints the usage and exits 0."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    if any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in head):
        from . import oracle

        print(_USAGE + "".join(f"  {c} {args}\n      {text}\n".format(
            **oracle.MODES) for c, (_, args, _, text) in _COMMANDS.items()))
        raise SystemExit(0)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})"
                         if argv else "the following arguments are "
                         "required: command")
    handler, wanted, options, _ = command
    wanted, options = wanted.split(), ("--help", *options.split())
    args = {"format": "text", "max_m": None, "mode": "ci"}
    tokens, dashed = argv[1:], False  # dashed: past the first "--"
    while tokens:
        token = tokens.pop(0)
        if dashed or not _is_option(token):
            if not wanted:
                raise UsageError(f"unrecognized arguments: {token}")
            name, value = wanted.pop(0), token
        elif token == "--":
            if not tokens:
                raise UsageError("unrecognized arguments: --")
            dashed = True
            continue
        else:
            prefix, eq, value = token.partition("=")
            name, *more = [n for n in options if n.startswith(prefix)
                           and prefix[:2] == "--"] or [token]
            if more:
                raise UsageError(f"ambiguous option: {prefix} could match "
                                 + ", ".join([name, *more]))
            if name not in options[1:]:  # --help takes no value
                raise UsageError(f"unrecognized arguments: {token}")
            if not eq:
                if not tokens or _is_option(tokens[0]):
                    raise UsageError(f"argument {name}: expected one argument")
                value = tokens.pop(0)
        try:
            args[name.lstrip("-").replace("-", "_")] = _TYPES[name](value)
        except UsageError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    if wanted:
        raise UsageError("the following arguments are required: "
                         + ", ".join(wanted))
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # A program run: its commands make no reference cycles, and a
        # collection would walk the ~11,000 objects of start-up (also at
        # exit), so the collector is off and those objects frozen.
        gc.disable()
        gc.freeze()
        argv = sys.argv[1:]
    try:
        handler, args = _parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout meets this flush, not the exit's
        return code
    except BrokenPipeError:  # as by `| head`; devnull takes the final flush
        os.dup2(fd := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(fd)
        return 141
    except core.VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
