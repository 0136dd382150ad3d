"""Command line surface: exact dimension, multiplicity and decomposition
tables on stdout.

Exit codes: 0 success, 1 usage error, 2 computation error (invalid
character input and the like), 3 verification mismatch, 141 closed stdout.
"""

import gc
import io
import os
import sys
from itertools import groupby
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
    # each line's head; character_lines refuses m above its cap at once
    m, lines = args.m, multiplicity.character_lines(args.m)
    table = _Table(args.format, m, character=True)
    sep, between = table.sep, table.between
    if args.format == "json":
        cells = [f', {l3}], "dim": %d}}' for l3 in range(m, -m - 1, -2)]
        head = '{"weight": [%d, %d'
    else:
        cells = [f"{sep}{l3}{sep}%d\n" for l3 in range(m, -m - 1, -2)]
        head = f"%d{sep}%d"
    template, bodies, total = "\0".join(cells), {}, 0
    for l1, l2, row in lines:
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
    from . import oracle, verify

    top = oracle.MODES[args.mode] if args.max_m is None else args.max_m
    core.check_cap(top, oracle.ENUMERATION_CAP, "oracle")
    for check, bound, template in verify.CHECKS:
        print(template.format(depth := bound(top), check(depth)))
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
