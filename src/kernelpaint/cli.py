"""Command line interface.

    kernelpaint suite <name> [--source file.g6] [--max-n N]
                             [--seed S] [--out report.jsonl]
                             [--format jsonl|summary] [--allow-large] [--timings]
    kernelpaint gen <family> [params...] [--g6|--dot]
    kernelpaint cert validate <file.json>

Exit codes: 0 all checks pass, 1 a counterexample was found, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import KernelPaintError
from .graph6 import encode_graph6, parse_graph6
from .graphs import make_named, to_dot
from .harness import SUITE_NAMES, run_suite, validate_certificate
from .orient import _integer
from .reduce import Certificate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelpaint",
        description="Exhaustive small-graph checks for kernel-based list-coloring arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run a theorem suite over a corpus")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    p_suite.add_argument("--source", default=None,
                         help="a graph6 file (default: enumerate up to --max-n)")
    p_suite.add_argument("--max-n", type=int, default=None,
                         help="enumerate up to this order; above the suite "
                              "ceiling requires --allow-large")
    p_suite.add_argument("--seed", type=int, default=0,
                         help="seed of the suites that draw at random, "
                              "gallai-count and cut-lemma; refused elsewhere")
    p_suite.add_argument("--out", default=None, help="write the JSONL report here")
    p_suite.add_argument("--format", choices=("jsonl", "summary"), default="summary")
    p_suite.add_argument("--allow-large", action="store_true",
                         help="permit --max-n beyond the suite's declared "
                              "ceiling; refused within it")
    p_suite.add_argument("--timings", action="store_true",
                         help="include corpus and elapsed times in the summary "
                              "(breaks byte-identical reports)")

    p_gen = sub.add_parser("gen", help="emit a named graph")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*", type=int)
    fmt = p_gen.add_mutually_exclusive_group()
    fmt.add_argument("--g6", action="store_true", help="graph6 line (default)")
    fmt.add_argument("--dot", action="store_true", help="DOT source")

    p_cert = sub.add_parser("cert", help="certificate operations")
    cert_sub = p_cert.add_subparsers(dest="cert_command", required=True)
    p_val = cert_sub.add_parser(
        "validate",
        help="validate a certificate file: JSON with graph6, f, and certificate",
    )
    p_val.add_argument("file")
    return parser


def _cmd_suite(args) -> int:
    report = run_suite(
        args.name,
        source=args.source,
        max_n=args.max_n,
        seed=args.seed,
        allow_large=args.allow_large,
        timings=args.timings,
    )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(report.to_jsonl())
    if args.format == "jsonl":
        sys.stdout.write(report.to_jsonl())
    else:
        summary = report.summary()
        for key in ("suite", "total", "passed", "failed", "skipped", "ok"):
            print(f"{key}: {summary[key]}")
        for reason, count in sorted(summary["skip_reasons"].items()):
            print(f"  skip[{reason}]: {count}")
        for key in ("corpus_s", "elapsed_s"):
            if key in summary:
                print(f"{key}: {summary[key]}")
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    g = make_named(args.family, args.params)
    if args.dot:
        sys.stdout.write(to_dot(g))
    else:
        print(encode_graph6(g))
    return 0


def _cmd_cert_validate(args) -> int:
    with open(args.file, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a certificate file holds one JSON object")
    missing = [k for k in ("graph6", "f", "certificate") if k not in payload]
    if missing:
        raise ValueError("certificate file lacks " + ", ".join(map(repr, missing)))
    if not isinstance(payload["graph6"], str):
        raise ValueError("field 'graph6' must be a graph6 string")
    if not isinstance(payload["f"], dict):
        raise ValueError("field 'f' must be a JSON object from vertex to value")
    g = parse_graph6(payload["graph6"])
    try:
        f = {int(k): _integer(v) for k, v in payload["f"].items()}
    except ValueError as exc:
        raise ValueError(f"field 'f' must map vertices to integers: {exc}") from None
    cert = Certificate.from_json(payload["certificate"])
    ok, reason = validate_certificate(cert, g, f)
    print(f"{'valid' if ok else 'invalid'}: {reason}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "cert":
            return _cmd_cert_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except (KernelPaintError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
