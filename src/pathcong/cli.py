"""Command-line front end.

Exit codes: 0 success, 1 domain error (cyclic input, size cap, bad file)
or standard output closed early by its reader, 2 usage error, 3 theorem
violation from the check harness, or a congruence list that is not a
lattice.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ideals import enumerate_special_ideals
from .lattice import LatticeError, lattice_properties, lattice_to_dot, lattice_to_json_dict
from .quiver import QuiverError, is_acyclic, parse_quiver, quiver_to_text
from .random_quivers import random_suite
from .semigroup import DEFAULT_MAX_ELEMENTS, CapExceeded, build_semigroup, enumerate_congruences
from .verify import (
    check_theorems,
    congruence_label,
    congruence_lattice,
    ideal_label,
    predict_properties,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _load_quiver(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QuiverError(f"cannot read {path}: {exc}") from exc
    return parse_quiver(text)


def _cmd_validate(q, args) -> int:
    acyclic = "yes" if is_acyclic(q) else "no"
    print(f"ok: {len(q.vertices)} vertices, {len(q.arrows)} arrows, acyclic: {acyclic}")
    return EXIT_OK


def _cmd_paths(q, args) -> int:
    s = build_semigroup(q)
    s.check_element_cap(args.max_elements)  # from path counts, before any path is listed
    for p in s.paths:
        print(p.name)
    return EXIT_OK


def _cmd_congruences(q, args) -> int:
    s = build_semigroup(q)
    congs = enumerate_congruences(s, args.max_elements)
    if args.json:
        payload = {"count": len(congs), "congruences": [c.to_json_dict() for c in congs]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{len(congs)} congruences")
        for c in congs:
            print(congruence_label(c))
    return EXIT_OK


def _cmd_ideals(q, args) -> int:
    s = build_semigroup(q)
    ideals = enumerate_special_ideals(q, args.max_elements)
    names = [p.name for p in s.paths]
    if args.json:
        payload = {"count": len(ideals), "ideals": [i.to_json_dict() for i in ideals]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{len(ideals)} special ideals")
        for ideal in ideals:
            print(f"dim {ideal.dim}: {ideal_label(ideal, names)}")
    return EXIT_OK


def _cmd_lattice(q, args) -> int:
    lat = congruence_lattice(build_semigroup(q), args.max_elements)
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(lattice_to_dot(lat))
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    if args.json:
        print(json.dumps(lattice_to_json_dict(lat), indent=2, sort_keys=True))
    elif args.dot is None:
        props = lattice_properties(lat)
        print(f"elements: {lat.n}")
        print(f"covers: {len(lat.covers)}")
        for key, value in props.items():
            print(f"{key}: {'yes' if value else 'no'}")
    return EXIT_OK


def _cmd_predict(q, args) -> int:
    predicted = predict_properties(q)
    s = build_semigroup(q)  # sized from path counts; nothing is enumerated
    elements, mpp = s.n, s.max_parallel_paths
    if args.json:
        payload = {"elements": elements, "max_parallel_paths": mpp, "predicted": predicted}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"elements: {elements}")
        print(f"max parallel paths: {mpp}")
        for key, value in predicted.items():
            print(f"{key}: {'yes' if value else 'no'}")
    return EXIT_OK


def _cmd_check(q, args) -> int:
    report = check_theorems(q, args.max_elements)
    print(report.format())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_random_check(args) -> int:
    worst = EXIT_OK
    suite = random_suite(args.trials, args.seed, args.vertices, args.arrows, args.max_elements)
    for trial, q in enumerate(suite, start=1):
        report = check_theorems(q, args.max_elements)
        status = "ok" if report.ok else "VIOLATION"
        summary = report.quiver_summary
        print(
            f"trial {trial}: {summary['vertices']} vertices, {summary['arrows']} arrows, "
            f"{summary['elements']} elements, {summary['congruences']} congruences: {status}"
        )
        if not report.ok:
            worst = EXIT_VIOLATION
            print(report.format())
            print("quiver was:")
            print(quiver_to_text(q), end="")
    return worst


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# A file command option: its flag and add_argument keywords.
_DOT = ("--dot", {"metavar": "PATH", "help": "write a DOT rendering to PATH"})
_JSON = ("--json", {"action": "store_true"})
_MAX_ELEMENTS = ("--max-elements", {"type": _int_at_least(1), "default": DEFAULT_MAX_ELEMENTS})

# Each command on a quiver file: (name, handler(q, args) run on the loaded
# quiver, help, options after the file).  A new one is a row and its handler.
FILE_COMMANDS = (
    ("validate", _cmd_validate, "parse a quiver file and report its shape", ()),
    ("paths", _cmd_paths, "list all paths in canonical order", (_MAX_ELEMENTS,)),
    ("congruences", _cmd_congruences, "enumerate all congruences", (_JSON, _MAX_ELEMENTS)),
    ("ideals", _cmd_ideals, "enumerate all special ideals", (_JSON, _MAX_ELEMENTS)),
    ("lattice", _cmd_lattice, "build the congruence lattice", (_DOT, _JSON, _MAX_ELEMENTS)),
    ("predict", _cmd_predict, "predict lattice properties from path counts alone", (_JSON,)),
    ("check", _cmd_check, "run the theorem-verification harness", (_MAX_ELEMENTS,)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcong",
        description=(
            "Congruence lattices of path semigroups of finite acyclic quivers, "
            "and the matching lattice of relation-generated path-algebra ideals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_line, options in FILE_COMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.add_argument("file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=lambda args, run=handler: run(_load_quiver(args.file), args))

    p = sub.add_parser("random-check", help="verify the theorems on random quivers")
    p.add_argument("--vertices", type=_int_at_least(1), default=4)
    p.add_argument("--arrows", type=_int_at_least(0), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=10)
    # one vertex plus zero: no path semigroup has fewer than 2 elements
    p.add_argument("--max-elements", type=_int_at_least(2), default=DEFAULT_MAX_ELEMENTS)
    p.set_defaults(func=_cmd_random_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (QuiverError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that closed early is seen here, not at exit
    except BrokenPipeError:
        # the Python docs' recipe: with stdout on devnull, the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN
    sys.exit(code)


if __name__ == "__main__":
    console_main()
