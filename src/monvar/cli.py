"""Command-line interface.

Exit codes: derive exits 0 on Proved, 1 on NotFoundWithinBounds, 2 on error;
verify exits 0 when every requested scenario reports PASS or
PASS_WITH_ASSUMPTIONS, 1 otherwise, 2 on error; all other commands exit 0 on
success, 2 on error.  A command whose stdout reader has gone (`monvar verify |
head -n 1`) stops quietly with 141, the status a shell reports for SIGPIPE.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .lattices import ElementProperty, check_implications, elements_with, has_property, load_lattice_file
from .rewriting import (
    Identity,
    Presentation,
    SearchBounds,
    derive,
    explore,
    format_certificate,
)
from .scenarios import SCENARIO_NAMES, run_scenario
from .varieties import isoterm_for, parse_variety, satisfies
from .words import format_word, parse_word


def _add_bounds_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-len", type=int, default=None, help="cap on intermediate word length")
    sub.add_argument("--max-depth", type=int, default=None, help="cap on derivation length")
    sub.add_argument("--max-states", type=int, default=None, help="cap on visited words")


def _bounds_from_args(args) -> SearchBounds:
    """The caps the bounds flags set; every search fills the others itself."""
    flags = {"max_word_length": args.max_len, "max_depth": args.max_depth, "max_states": args.max_states}
    return SearchBounds(**{cap: value for cap, value in flags.items() if value is not None})


def _cmd_derive(args) -> int:
    sigma = Presentation.read(args.system)
    cert = derive(sigma, parse_word(args.lhs), parse_word(args.rhs), _bounds_from_args(args))
    if cert is None:
        print("NotFoundWithinBounds")
        return 1
    print(f"Proved ({len(cert)} steps)")
    print("system:")
    for index, ident in enumerate(sigma.identities):
        print(f"  [{index}] {ident}")
    print("certificate:")
    print(format_certificate(cert), end="")
    print("replay:")
    chain = cert.words(sigma)
    print(f"  {format_word(chain[0])}")
    for word in chain[1:]:
        print(f"  -> {format_word(word)}")
    return 0


def _cmd_class(args) -> int:
    sigma = Presentation.read(args.system)
    found = explore(sigma, parse_word(args.word), _bounds_from_args(args))
    status = "Complete" if found.saturated else "CapExceeded (partial)"
    members = sorted(found.words, key=lambda w: w.key)
    print(f"{status}: {len(members)} words")
    for member in members:
        print(f"  {format_word(member)}")
    return 0


def _cmd_isoterm(args) -> int:
    print(isoterm_for(parse_variety(args.variety), parse_word(args.word), _bounds_from_args(args)))
    return 0


def _cmd_satisfies(args) -> int:
    handle = parse_variety(args.variety)
    identity = Identity(parse_word(args.lhs), parse_word(args.rhs))
    print(satisfies(handle, identity, _bounds_from_args(args)))
    return 0


def _cmd_lattice(args) -> int:
    lattice = load_lattice_file(args.file)
    if args.element is not None or args.property is not None:
        if args.element is None or args.property is None:
            raise ValueError("--element and --property must be given together")
        prop = ElementProperty(args.property)
        print("true" if has_property(lattice, args.element, prop) else "false")
        return 0
    if args.implications:
        violations = check_implications(lattice)
        if violations:
            for line in violations:
                print(line)
            return 0
        print("no violations")
        return 0
    # default: the property table
    props = list(ElementProperty)
    truth = {p: elements_with(lattice, p) for p in props}
    if args.csv:
        rows = ([label, p.value, str(label in truth[p]).lower()] for label in lattice.labels for p in props)
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return 0
    width = max(len("element"), *(len(label) for label in lattice.labels)) + 2
    header = "element".ljust(width) + " ".join(p.value for p in props)
    print(header)
    for label in lattice.labels:
        cells = []
        for p in props:
            mark = "yes" if label in truth[p] else "no"
            cells.append(mark.ljust(len(p.value)))
        print((label.ljust(width) + " ".join(cells)).rstrip())
    return 0


def _cmd_verify(args) -> int:
    names = [args.scenario] if args.scenario else list(SCENARIO_NAMES)
    rendered = []
    all_ok = True
    for name in names:
        report = run_scenario(name)
        text = report.render() + "\n"
        rendered.append(text)
        print(text, end="")
        if report.status not in ("PASS", "PASS_WITH_ASSUMPTIONS"):
            all_ok = False
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("".join(rendered))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monvar",
        description="equational reasoning over monoid varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="search for a derivation of an identity from a system")
    p.add_argument("--system", required=True, help="identity-system file")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    _add_bounds_flags(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("class", help="enumerate the congruence class of a word")
    p.add_argument("--system", required=True)
    p.add_argument("--word", required=True)
    _add_bounds_flags(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("isoterm", help="is the word an isoterm for the variety?")
    p.add_argument("--variety", required=True, help="T|SL|C|LRB|RRB|MON, @file, meet(...), join(...)")
    p.add_argument("--word", required=True)
    _add_bounds_flags(p)
    p.set_defaults(func=_cmd_isoterm)

    p = sub.add_parser("satisfies", help="does the variety satisfy the identity?")
    p.add_argument("--variety", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    _add_bounds_flags(p)
    p.set_defaults(func=_cmd_satisfies)

    p = sub.add_parser("lattice", help="query a finite lattice file")
    p.add_argument("--file", required=True)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--element", default=None)
    output.add_argument("--table", action="store_true", help="print the full property table (default)")
    output.add_argument("--csv", action="store_true", help="machine-readable rows element,property,boolean")
    output.add_argument("--implications", action="store_true")
    p.add_argument("--property", default=None, choices=[e.value for e in ElementProperty])
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", help="run the verification scenarios")
    p.add_argument("scenario", nargs="?", choices=list(SCENARIO_NAMES), default=None)
    p.add_argument("--report", default=None, help="also write the reports to this path")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # what the buffer still holds goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
