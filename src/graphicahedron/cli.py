"""Command-line front end with deterministic JSON output.

Subcommands: ``build`` (face counts), ``verify`` (polytope axioms),
``analyze`` (symmetry and facet census), ``export`` (Cayley graph or
skeleton as DOT/JSON).  Exit codes: 0 ok, 1 parse error, 2 disconnected
graph, 3 capacity exceeded, 4 axiom failure, 5 internal inconsistency.

A bad, missing or unknown option or subcommand ends like a bad graph, in
one ``error:`` line and exit 1; ``--max-*`` values take ASCII decimal digits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from typing import Callable, Iterator, NoReturn, Sequence

from . import classify, polytope, symmetry
from .cayley import build_cayley, dot_graph, export_dot
from .errors import (
    CapacityError,
    DisconnectedGraphError,
    GraphicahedronError,
    InternalInconsistencyError,
    ParseError,
)
from .graphs import SimpleGraph, parse_graph, parse_int, preset_graph, preset_order
from .perms import check_perm_capacity

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DISCONNECTED = 2
EXIT_CAPACITY = 3
EXIT_AXIOM = 4
EXIT_INCONSISTENT = 5

# The exit code of each library error class; main looks up an error's
# classes in method resolution order, so a subclass takes its base's code.
ERROR_EXITS = {
    ParseError: EXIT_PARSE,
    DisconnectedGraphError: EXIT_DISCONNECTED,
    CapacityError: EXIT_CAPACITY,
    InternalInconsistencyError: EXIT_INCONSISTENT,
    GraphicahedronError: EXIT_PARSE,
}

VERIFY_MAX_PERMS = 720  # p <= 6


def _parse_inline_edges(text: str) -> SimpleGraph:
    lines = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty edge in {text!r}")
        i, _, j = chunk.partition("-")
        lines.append(f"{i.strip()} {j.strip()}")
    return parse_graph("\n".join(lines))


def _graph_from_args(args: argparse.Namespace) -> SimpleGraph:
    if args.file is not None:
        try:
            with open(args.file, encoding="ascii") as handle:
                text = handle.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the name, or non-ASCII text
            raise ParseError(f"cannot read graph file: {exc}") from None
        return parse_graph(text)
    if args.edges is not None:
        return _parse_inline_edges(args.edges)
    name, _, arg = args.preset.partition(":")
    try:
        n = parse_int(arg) if arg else None
    except ValueError:
        raise ParseError(f"bad preset size in {args.preset!r}") from None
    try:
        p = preset_order(name, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    # a preset's size is known before its edges are listed: refuse a huge one first
    check_perm_capacity(p, args.max_perms)
    return preset_graph(name, n)


def _graph_echo(graph: SimpleGraph) -> dict:
    return {
        "p": graph.p,
        "q": graph.q,
        "edges": [[i + 1, j + 1] for i, j in graph.edges],
    }


def _report_head(graph: SimpleGraph, hedron) -> dict:
    # f_vector covers proper ranks 0..q-1 plus the greatest face at rank q;
    # the least face at rank -1 is implicit and never stored
    return {
        "graph": _graph_echo(graph),
        "rank": graph.q,
        "improper_ranks": [-1, graph.q],
        "f_vector": list(hedron.f_vector()),
        "flag_count": polytope.flag_count(hedron),
    }


def _json_list(values: list, pad: str) -> str:
    """A list as ``json.dumps(..., indent=2)`` writes it at indent ``pad``;
    the items are ints, strings or non-empty flat lists of ints."""
    if not values:
        return "[]"
    inner = pad + "  "
    if isinstance(values[0], list):
        deeper = inner + "  "
        head, sep, tail = f"[\n{deeper}", f",\n{deeper}", f"\n{inner}]"
        items = [head + sep.join(map(str, row)) + tail for row in values]
    else:
        items = map(json.dumps if isinstance(values[0], str) else str, values)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _write_json_lists(payload: dict[str, list]) -> None:
    """``json.dumps(payload, indent=2)`` plus a newline, for a dict of
    :func:`_json_list` lists, without the pure-Python encoder that
    ``indent`` selects."""
    body = ",\n".join(f"  {json.dumps(key)}: {_json_list(values, '  ')}" for key, values in payload.items())
    sys.stdout.write("{\n" + body + "\n}\n")


@contextlib.contextmanager
def _stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Record the wall time of the enclosed block as ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def _print_report(report: dict, args: argparse.Namespace, timings: dict) -> None:
    if args.timings:
        report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    graph = _graph_from_args(args)
    with _stage(timings, "build"):
        hedron = polytope.build(graph, max_perms=args.max_perms)
    report = _report_head(graph, hedron)
    _print_report(report, args, timings)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    graph = _graph_from_args(args)
    # build checks the permutation cap and connectivity before any face;
    # the verifiers walk covers, so no flag count bounds them
    hedron = polytope.build(graph, max_perms=args.max_perms)

    drop_color = None
    if args.corrupt == "drop-face" and graph.q >= 1:
        hedron = polytope.drop_face(hedron, hedron.faces(graph.q - 1)[0])
    elif args.corrupt == "drop-adjacency" and graph.q >= 2:
        drop_color = 0

    with _stage(timings, "diamond"):
        diamond = polytope.verify_diamond(hedron)
    with _stage(timings, "strong_flag_connected"):
        connected = polytope.verify_strong_flag_connectedness(hedron, drop_color=drop_color)
    with _stage(timings, "simple"):
        simple = all(
            polytope.vertex_figure_is_simplex(hedron, v) for v in hedron.faces(0)
        )

    axioms: dict = {
        "diamond": "pass" if diamond.passed else "fail",
        "strong_flag_connected": "pass" if connected.passed else "fail",
        "simple": "pass" if simple else "fail",
    }
    witnesses = [r.failure for r in (diamond, connected) if r.failure]
    if witnesses:
        axioms["witness"] = witnesses[0]
    report = _report_head(graph, hedron)
    report["axioms"] = axioms
    _print_report(report, args, timings)
    return EXIT_OK if diamond.passed and connected.passed and simple else EXIT_AXIOM


def cmd_analyze(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    graph = _graph_from_args(args)
    # the automorphism count refuses more than --max-flags flags; do so before any face is built
    polytope.check_buildable(graph, max_perms=args.max_perms)
    polytope.check_flag_capacity(graph, args.max_flags)
    hedron = polytope.build(graph, max_perms=args.max_perms)

    with _stage(timings, "symmetry"):
        summary = symmetry.aut_summary(hedron, max_flags=args.max_flags)
    with _stage(timings, "census"):
        census = classify.facet_census(hedron).entries if graph.q >= 1 else ()

    report = _report_head(graph, hedron)
    report.update({
        "symmetry": dataclasses.asdict(summary),
        "facet_census": [
            {"type": tag.label, "count": count, "sample_facet_id": sample} for tag, count, sample in census
        ],
    })
    _print_report(report, args, timings)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    what, _, karg = args.what.partition(":")
    if args.what == "cayley":
        cayley = build_cayley(graph, max_perms=args.max_perms)
        if args.format == "dot":
            sys.stdout.write(export_dot(cayley))
        else:
            _write_json_lists({
                "nodes": [",".join(str(v + 1) for v in a) for a in cayley.perms],
                "edges": [[u, v, c + 1] for u, v, c in sorted(cayley.edges())],
            })
        return EXIT_OK
    if what == "skeleton":
        try:
            k = parse_int(karg)
        except ValueError:
            raise ParseError(f"bad skeleton rank in {args.what!r}") from None
        try:
            skel = polytope.build_skeleton(graph, k, max_perms=args.max_perms)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        edges = skel.vertex_edges()
        if args.format == "dot":
            sys.stdout.write(dot_graph("skeleton", skel.vertex_reps, edges))
        else:
            _write_json_lists({
                "faces_per_rank": list(skel.f_vector()[:k + 1]),
                "edges": [[u, v, c + 1] for u, v, c in edges],
            })
        return EXIT_OK
    raise ParseError(f"unknown export target {args.what!r}")


def _cap(text: str) -> int:
    """A ``--max-*`` value: a non-negative integer in ASCII decimal digits."""
    try:
        value = parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`ParseError`, as do its subcommands' parsers."""

    def error(self, message: str) -> NoReturn:
        # argparse leaves unrecognized arguments unquoted: escape their line breaks
        raise ParseError("".join(c if c.isprintable() else ascii(c)[1:-1] for c in message))


def _subcommand(
    sub, name: str, func: Callable[[argparse.Namespace], int], summary: str,
    max_perms: int = polytope.DEFAULT_MAX_PERMS, timings: bool = True,
) -> argparse.ArgumentParser:
    """A subcommand with its handler, one graph source, ``--max-perms`` and,
    when it writes a JSON report (all but ``export``), ``--timings``."""
    parser = sub.add_parser(name, help=summary)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="graph file in edge-list format")
    source.add_argument("--edges", help='inline edge list, e.g. "1-2,2-3"')
    source.add_argument("--preset", help="named graph: path:N, cycle:N, star:N, paw, fork")
    parser.add_argument("--max-perms", type=_cap, default=max_perms)
    if timings:
        parser.add_argument("--timings", action="store_true")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphicahedron",
        description="Build, verify and analyze the graphicahedron of a connected graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "build", cmd_build, "face counts and flag count")
    p_verify = _subcommand(sub, "verify", cmd_verify, "check the abstract-polytope axioms", VERIFY_MAX_PERMS)
    p_verify.add_argument(
        "--corrupt",
        choices=["drop-face", "drop-adjacency"],
        help=argparse.SUPPRESS,  # test-only defect injection
    )
    p_analyze = _subcommand(sub, "analyze", cmd_analyze, "symmetry group and facet census", VERIFY_MAX_PERMS)
    p_analyze.add_argument("--max-flags", type=_cap, default=symmetry.DEFAULT_MAX_FLAGS)
    p_export = _subcommand(sub, "export", cmd_export, "Cayley graph or skeleton as DOT/JSON", timings=False)
    p_export.add_argument("--what", required=True, help="cayley or skeleton:K")
    p_export.add_argument("--format", choices=["dot", "json"], default="dot")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help printed its text: every other usage error is a ParseError
        return EXIT_OK
    except GraphicahedronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(ERROR_EXITS[cls] for cls in type(exc).__mro__ if cls in ERROR_EXITS)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
