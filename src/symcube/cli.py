"""Command line surface: exact dimension, multiplicity and decomposition
tables on stdout.

Exit codes: 0 success, 1 usage error, 2 computation error (invalid
character input and the like), 3 verification mismatch.
"""

import argparse
import json
import sys
from math import comb

from .characters import (
    NotAModuleCharacterError,
    character_symmetric_power,
    greedy_decompose,
)
from .core import (
    CharacterFormatError,
    Decomposition,
    decomposition_total,
    parse_character,
)
from .dims import c2, dim_by_convolution, dim_closed_form, dim_weight
from .multiplicity import decompose_symmetric_power, multiplicity_sym
from .oracle import c2_bruteforce, convolution_bruteforce, enumerate_character


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _print_rows(rows: list[tuple[int, ...]], header: str, fmt: str,
                footer: str | None = None) -> None:
    """Shared table renderer: text rows, a csv table with header, or the
    rows as-is for callers that build their own json."""
    if fmt == "csv":
        print(header)
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        for row in rows:
            print(" ".join(str(v) for v in row))
        if footer is not None:
            print(footer)


def _decomposition_rows(dec: Decomposition) -> list[tuple[int, ...]]:
    return [
        (label[0], label[1], label[2], dec[label])
        for label in sorted(dec, reverse=True)
    ]


def _render_decomposition(dec: Decomposition, fmt: str,
                          m: int | None = None) -> None:
    total = decomposition_total(dec)
    if fmt == "json":
        payload: dict = {}
        if m is not None:
            payload["m"] = m
        payload["entries"] = [
            {"label": list(label), "mult": dec[label]}
            for label in sorted(dec, reverse=True)
        ]
        payload["total_dim"] = total
        print(json.dumps(payload))
    else:
        _print_rows(
            _decomposition_rows(dec), "n1,n2,n3,mult", fmt,
            footer=f"total_dim = {total}",
        )


def _cmd_dim(args) -> int:
    w = (args.l1, args.l2, args.l3)
    value = dim_weight(args.m, w)
    if args.format == "json":
        print(json.dumps({"m": args.m, "weight": list(w), "dim": value}))
    elif args.format == "csv":
        print("m,l1,l2,l3,dim")
        print(f"{args.m},{w[0]},{w[1]},{w[2]},{value}")
    else:
        print(value)
    return 0


def _cmd_mult(args) -> int:
    label = (args.n1, args.n2, args.n3)
    value = multiplicity_sym(args.m, label)
    if args.format == "json":
        print(json.dumps({"m": args.m, "label": list(label), "mult": value}))
    elif args.format == "csv":
        print("m,n1,n2,n3,mult")
        print(f"{args.m},{label[0]},{label[1]},{label[2]},{value}")
    else:
        print(value)
    return 0


def _cmd_decompose(args) -> int:
    dec = decompose_symmetric_power(args.m)
    _render_decomposition(dec, args.format, m=args.m)
    return 0


def _cmd_character(args) -> int:
    c = character_symmetric_power(args.m)
    weights = sorted(c, reverse=True)
    if args.format == "json":
        print(json.dumps({
            "m": args.m,
            "entries": [{"weight": list(w), "dim": c[w]} for w in weights],
            "total": sum(c.values()),
        }))
    else:
        rows = [(w[0], w[1], w[2], c[w]) for w in weights]
        _print_rows(rows, "l1,l2,l3,dim", args.format)
    return 0


def _cmd_greedy(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    dec = greedy_decompose(parse_character(text))
    _render_decomposition(dec, args.format)
    return 0


def _cmd_verify(args) -> int:
    max_m = args.max_m
    if max_m is None:
        max_m = 20 if args.mode == "extended" else 12

    for r1 in range(41):
        for r2 in range(r1 + 1):
            for r3 in range(r1 + 1):
                if c2(r1, r2, r3) != c2_bruteforce(r1, r2, r3):
                    print(
                        f"mismatch: c2 vs brute force at "
                        f"(r1, r2, r3) = ({r1}, {r2}, {r3})",
                        file=sys.stderr,
                    )
                    return 3
    print("2x2 matrix counts: closed form == brute force for r1 <= 40")

    cases = 0
    for m in range(17):
        for k in range(m // 2 + 1):
            for r in range(k + 1):
                for n in range(r + 1):
                    closed = dim_closed_form(m, k, r, n)
                    conv = dim_by_convolution(m, k, r, n)
                    pairs = convolution_bruteforce(m, k, r, n)
                    if not (closed == conv == pairs):
                        print(
                            f"mismatch: dimensions diverge at "
                            f"(m, k, r, n) = ({m}, {k}, {r}, {n}): "
                            f"closed={closed} convolution={conv} "
                            f"enumerated={pairs}",
                            file=sys.stderr,
                        )
                        return 3
                    cases += 1
    print(
        "weight dimensions: closed form == convolution == pair enumeration "
        f"for m <= 16 ({cases} indices)"
    )

    for m in range(max_m + 1):
        if enumerate_character(m, cap=max(max_m, 20)) != \
                character_symmetric_power(m):
            print(
                f"mismatch: monomial enumeration differs from closed-form "
                f"character at m = {m}",
                file=sys.stderr,
            )
            return 3
    print(f"characters: monomial enumeration == closed forms for m <= {max_m}")

    greedy_max = min(max_m, 10)
    for m in range(greedy_max + 1):
        if greedy_decompose(character_symmetric_power(m)) != \
                decompose_symmetric_power(m):
            print(
                f"mismatch: greedy and inclusion-exclusion decompositions "
                f"differ at m = {m}",
                file=sys.stderr,
            )
            return 3
    print(
        "decompositions: greedy == inclusion-exclusion "
        f"for m <= {greedy_max}"
    )

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
    p.add_argument("l1", type=int)
    p.add_argument("l2", type=int)
    p.add_argument("l3", type=int)
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
    p.add_argument(
        "--max-m", type=_nonneg, default=None,
        help="largest power for the character comparison "
        "(default: 12 in ci mode, 20 in extended mode)",
    )
    p.add_argument(
        "--mode", choices=("ci", "extended"), default="ci",
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
        return args.func(args)
    except (NotAModuleCharacterError, CharacterFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
