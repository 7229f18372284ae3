"""Command line interface.

Exit status: 0 on success, 1 when a verification scan found a mismatch
against published values (or an --expect assertion failed), 2 on usage
errors (``core.UsageError``), including malformed shapes, patterns, and
contents, and a --cache path that cannot be read or created (reported before
any count runs) or appended to (reported when the append fails), 3 when the
--cache file holds a line that is not a count record or two lines that give
one record different counts (a torn last line, one that does not parse as
JSON, is only skipped, with a warning), 4 on an internal error (a bug: its
traceback and an ``internal error:`` line go to stderr), and 141 when the
reader of stdout closes it early, as ``| head`` does, or before reading at
all (quietly, like a process that SIGPIPE stopped).  A usage error in a
command's own arguments is reported before --cache is read, so the cache
file is left as it is.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .core import (
    Filling,
    UsageError,
    format_composition,
    format_shape,
    format_word,
    parse_composition,
    parse_int,
    parse_patterns,
    parse_shape,
    parse_word,
)
from .bijection import VARIANTS
from .enumeration import (
    UNCONSTRAINED,
    CorruptCache,
    ResultCache,
    check_bounds,
    check_content,
    counted,
    enumerate_fillings,
    parse_content,
    word_rectangle,
)
from .harness import (
    VERDICT_EQUAL,
    VERDICT_UNEQUAL,
    check_beta,
    reproduce_table,
    scan_conjecture1,
    scan_conjecture2,
    check_equivalence,
)


def _open_cache(args):
    """A context manager giving the --cache ResultCache, or None without --cache."""
    return ResultCache(args.cache) if args.cache is not None else nullcontext()


def _emit_report(report, args) -> None:
    # json and csv are written as they are formatted, with no document in memory.
    if args.out == "json":
        report.write_json(sys.stdout)
        print()
    elif args.out == "csv":
        report.write_csv(sys.stdout)
    else:
        for mismatch in report.mismatches:
            print(
                f"MISMATCH shape={mismatch.shape} content={mismatch.content} "
                f"{mismatch.a} vs {mismatch.b}" + (f" ({mismatch.note})" if mismatch.note else "")
            )
        print(f"verdict: {report.verdict} ({len(report.records)} counts)")


def _cmd_count(args) -> int:
    shape = parse_shape(args.shape)
    return _count(args, shape, check_content(shape, parse_content(args.content)), {})


def _cmd_count_words(args) -> int:
    sizes = {"length": args.length, "alphabet": args.alphabet}
    return _count(args, word_rectangle(args.length, args.alphabet), UNCONSTRAINED, sizes)


def _count(args, shape, content, extra: dict) -> int:
    """Parse the patterns, count through the cache, print the record (json: plus ``extra``)."""
    patterns = parse_patterns(args.patterns)
    with _open_cache(args) as cache:
        record = counted(shape, content, patterns, cache=cache)
    print(json.dumps({**record.to_json(), **extra}) if args.out == "json" else record.count)
    return 0


def _cmd_enumerate(args) -> int:
    shape = parse_shape(args.shape)
    content = check_content(shape, parse_content(args.content))
    fillings = enumerate_fillings(shape, parse_patterns(args.patterns), content)
    if args.out == "json":
        # The bytes of json.dumps([list(f.col_to_row) for f in fillings]), a filling at a time.
        write = sys.stdout.write
        lead = "["
        for filling in fillings:
            write(lead + "[" + ", ".join(map(str, filling.col_to_row)) + "]")
            lead = ", "
        print("[]" if lead == "[" else "]")
    else:
        for filling in fillings:
            print(format_word(filling.col_to_row))
    return 0


def _cmd_bijection(args) -> int:
    shape = parse_shape(args.shape)
    content = parse_composition(args.content)
    filling = Filling(shape, parse_word(args.filling))
    steps = VARIANTS[args.theorem].trace(filling, content, inverse=args.inverse)
    document = {
        "variant": args.theorem,
        "direction": "inverse" if args.inverse else "forward",
        "avoids": [format_word(p) for p in steps.avoids],
        "shape": format_shape(shape),
        "content": format_composition(content),
        "filling": format_word(filling.col_to_row),
        "blowup": {
            "shape": format_shape(steps.blowup.shape),
            "placement": format_word(steps.blowup.col_to_row),
            "stacking": steps.stacking.value,
        },
        "i_sequence": list(steps.i_sequence),
        "n_sequence": list(steps.n_sequence),
        "transformed_sequence": list(steps.transformed),
        "alpha_inverse" if args.inverse else "alpha": format_word(steps.partner.col_to_row),
        "image": format_word(steps.image.col_to_row),
    }
    print(json.dumps(document, indent=2))
    return 0


def _cmd_table(args) -> int:
    with _open_cache(args) as cache:
        report = reproduce_table(args.table, cache=cache)
    _emit_report(report, args)
    return 0 if report.verdict == VERDICT_EQUAL else 1


def _cmd_check_equiv(args) -> int:
    omega, sigma = parse_patterns(args.omega), parse_patterns(args.sigma)
    check_bounds(max_cols=args.max_cols, max_rows=args.max_rows)
    with _open_cache(args) as cache:
        report = check_equivalence(omega, sigma, args.max_cols, args.max_rows, cache=cache)
    _emit_report(report, args)
    if args.expect and report.verdict != args.expect:
        print(f"expected verdict {args.expect}, got {report.verdict}", file=sys.stderr)
        return 1
    return 0


def _cmd_scan_conj1(args) -> int:
    check_bounds(max_cols=args.max_cols, max_rows=args.max_rows)
    with _open_cache(args) as cache:
        report = scan_conjecture1(args.max_cols, args.max_rows, cache=cache)
    if args.out == "plain":
        for shape, _, _, ((a,), (b,)) in report.counts:  # one content and two pattern sets
            if a < b:
                print(f"strict: {format_shape(shape)}: {a} < {b}")
    _emit_report(report, args)
    return 0


def _cmd_scan_conj2(args) -> int:
    beta = parse_word(args.beta)
    check_bounds(max_length=args.max_length, max_alphabet=args.max_alphabet)
    beta = check_beta(beta)
    with _open_cache(args) as cache:
        report = scan_conjecture2(beta, args.max_length, args.max_alphabet, cache=cache)
    _emit_report(report, args)
    if args.out == "plain" and report.verdict == VERDICT_UNEQUAL:
        witness = report.mismatches[0]
        print(f"witness: {witness.note}: {witness.a} vs {witness.b}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapewilf",
        description="Count, enumerate and map pattern-avoiding fillings of Ferrers shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, patterns=False, content=False, cache=True, outs=("plain", "json", "csv")):
        # Every type=int argument of p is read by parse_int (ASCII digits only),
        # while argparse still names the type "int" in its usage errors.
        p.register("type", int, parse_int)
        if patterns:
            p.add_argument("--patterns", default="", help="pattern set, e.g. 231 or 231+221")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="accepted for compatibility and ignored: counts run in-process",
        )
        if cache:
            p.add_argument("--cache", help="append-only JSONL result cache")
        p.add_argument("--out", choices=outs, default="plain")
        if content:
            p.add_argument(
                "--content",
                default=UNCONSTRAINED,
                help="composition like 2,2,1, or 'all'/'unconstrained', or 'positive'",
            )

    p = sub.add_parser("count", help="count avoiding fillings of one shape")
    p.add_argument("--shape", required=True, help="row lengths bottom to top, e.g. 5,5,4")
    common(p, patterns=True, content=True, outs=("plain", "json"))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("count-words", help="count avoiding words of given length/alphabet")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    common(p, patterns=True, outs=("plain", "json"))
    p.set_defaults(func=_cmd_count_words)

    p = sub.add_parser("enumerate", help="stream the avoiding fillings of one shape")
    p.add_argument("--shape", required=True)
    common(p, patterns=True, content=True, cache=False, outs=("plain", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bijection", help="apply an equivalence map to one filling")
    p.add_argument("--theorem", choices=sorted(VARIANTS), required=True,
                   help="11: {231,221}<->{312,212}; 12: {231,121}<->{312,211}")
    p.add_argument("--shape", required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--filling", required=True, help="rows of the 1's by column, e.g. 1465213233")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("table", help="recompute a published table and compare")
    p.add_argument("table", type=int, choices=[1, 2, 3, 4])
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check-equiv", help="compare two pattern sets over bounded shapes")
    p.add_argument("omega")
    p.add_argument("sigma")
    p.add_argument("--max-cols", type=int, required=True)
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--expect", choices=[VERDICT_EQUAL, VERDICT_UNEQUAL])
    common(p)
    p.set_defaults(func=_cmd_check_equiv)

    p = sub.add_parser("scan-conj1", help="scan the 231-vs-312 count inequality over shapes")
    p.add_argument("--max-cols", type=int, required=True)
    p.add_argument("--max-rows", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_scan_conj1)

    p = sub.add_parser("scan-conj2", help="scan word counts of 231+beta vs 312+beta")
    p.add_argument("--beta", default="", help="permutation tail, e.g. 1 or 12; empty allowed")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--max-alphabet", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_scan_conj2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # in the try: the interpreter's own last flush would raise outside it
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorruptCache as exc:
        print(f"error: damaged cache: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader stopped reading (``| head``).  Send what is still buffered
        # to devnull, so the interpreter's last flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # what a shell reports for a process stopped by SIGPIPE
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
