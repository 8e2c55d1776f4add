"""Command-line front end with deterministic JSON output.

Subcommands: ``build`` (face counts), ``verify`` (polytope axioms),
``analyze`` (symmetry and facet census), ``export`` (Cayley graph or
skeleton as DOT/JSON).  Exit codes: 0 ok, 1 parse error, 2 disconnected
graph, 3 capacity exceeded, 4 axiom failure, 5 internal inconsistency.

A bad, missing or unknown option or subcommand ends like a bad graph, in
one ``error:`` line and exit 1; ``--max-perms`` takes ASCII decimal digits.
``verify`` and ``analyze`` exit 3 before building any face if p!·2^q > 512·``--max-perms``.

The writers stream: ``build`` counts the faces block by block and keeps no
store, and ``export`` takes its edges one window of vertices at a time and
writes its DOT lines or JSON list items a thousand at a time, so no command
holds its whole output.  A reader that closes stdout early, as ``| head``
does, ends the run quietly.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import classify, polytope, symmetry
from .cayley import SortedEdges, build_cayley, dot_graph, labels
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

# Pieces (DOT lines, JSON list items) joined into one stdout write: enough
# that the writes cost little, few enough that no write holds a large part
# of the output.
_CHUNK_PIECES = 1024


def _parse_inline_edges(text: str) -> SimpleGraph:
    """Comma-separated ``i-j`` pairs of positive labels in ASCII digits, each
    edge once; an error quotes the chunk as typed."""
    edges: dict[tuple[int, int], None] = {}  # 0-based sorted pairs, in input order
    for chunk in text.split(","):
        try:
            i, j = sorted(map(parse_int, chunk.split("-")))
        except ValueError:  # not two labels, a label not in digits, or one past int()'s digit limit
            i = 0
        if i < 1:
            raise ParseError(f"bad edge {chunk!r}, expected i-j with positive labels")
        if i == j:
            raise ParseError(f"loop edge {chunk!r}")
        if (i - 1, j - 1) in edges:
            raise ParseError(f"duplicate edge {chunk!r}")
        edges[i - 1, j - 1] = None
    return SimpleGraph(max(j for _, j in edges) + 1, tuple(edges))


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
    name, sep, arg = args.preset.partition(":")
    try:
        n = parse_int(arg) if sep else None
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


def _report_head(graph: SimpleGraph, f_vector: Iterable[int]) -> dict:
    # f_vector covers proper ranks 0..q-1 plus the greatest face at rank q;
    # the least face at rank -1 is implicit and never stored
    return {
        "graph": _graph_echo(graph),
        "rank": graph.q,
        "improper_ranks": [-1, graph.q],
        "f_vector": list(f_vector),
        "flag_count": math.factorial(graph.p) * math.factorial(graph.q),
    }


def _write_chunks(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout, one join of ``_CHUNK_PIECES`` of them per
    write: the output is never held whole, and never written piece by piece."""
    pieces = iter(pieces)
    while chunk := list(itertools.islice(pieces, _CHUNK_PIECES)):
        sys.stdout.write("".join(chunk))


def _json_pieces(payload: dict[str, Iterable]) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2)`` plus a newline, one list
    item at a time, for a non-empty dict of iterables whose items are ints
    or strings; a :class:`SortedEdges` value is written as its
    ``[u, v, color + 1]`` lists, through one ``%`` template.
    The pure-Python encoder that ``indent`` selects is not used."""
    lead = "{\n"
    for key, values in payload.items():
        yield f"{lead}  {json.dumps(key)}: "
        if isinstance(values, SortedEdges):
            items = values.render(_JSON_EDGE, lambda color: color + 1)
        else:
            items = map(_json_item, values)
        first = next(items, None)
        if first is None:
            yield "[]"
        else:
            yield "[" + first[1:]  # the first item's separator opens the list
            yield from items
            yield "\n  ]"
        lead = ",\n"
    yield "\n}\n"


# The list item [u, v, color + 1], led by its separator, as a template on (u, v, color + 1).
_JSON_EDGE = ",\n    [\n      %d,\n      %d,\n      %d\n    ]"


def _json_item(value: int | str) -> str:
    """One list item of :func:`_json_pieces`, led by its separator."""
    return ",\n    " + (json.dumps(value) if isinstance(value, str) else str(value))


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
        # every face is enumerated, one block at a time, and counted; no store is kept
        polytope.check_buildable(graph, args.max_perms)
        f_vector = [
            sum(len(reps) for _, reps in polytope.faces_of_rank(graph, rank)) for rank in range(graph.q + 1)
        ]
    report = _report_head(graph, f_vector)
    _print_report(report, args, timings)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    graph = _graph_from_args(args)
    polytope.check_walkable(graph, args.max_perms)
    hedron = polytope.build(graph, max_perms=args.max_perms)

    with _stage(timings, "diamond"):
        diamond = polytope.verify_diamond(hedron)
    with _stage(timings, "strong_flag_connected"):
        connected = polytope.verify_strong_flag_connectedness(hedron)
    with _stage(timings, "simple"):
        simple = hedron.is_simple

    axioms: dict = {
        "diamond": "pass" if diamond.passed else "fail",
        "strong_flag_connected": "pass" if connected.passed else "fail",
        "simple": "pass" if simple else "fail",
    }
    witnesses = [r.failure for r in (diamond, connected) if r.failure]
    if witnesses:
        axioms["witness"] = witnesses[0]
    report = _report_head(graph, hedron.f_vector())
    report["axioms"] = axioms
    _print_report(report, args, timings)
    return EXIT_OK if diamond.passed and connected.passed and simple else EXIT_AXIOM


def cmd_analyze(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    graph = _graph_from_args(args)
    polytope.check_walkable(graph, args.max_perms)
    hedron = polytope.build(graph, max_perms=args.max_perms)

    with _stage(timings, "symmetry"):
        summary = symmetry.aut_summary(hedron)
    with _stage(timings, "census"):
        census = classify.facet_census(hedron).entries if graph.q >= 1 else ()

    report = _report_head(graph, hedron.f_vector())
    report.update({
        "symmetry": summary._asdict(),
        "facet_census": [
            {"type": tag, "count": count, "sample_facet_id": sample} for tag, count, sample in census
        ],
    })
    _print_report(report, args, timings)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    what, _, karg = args.what.partition(":")
    if args.what == "cayley":
        cayley = build_cayley(graph, max_perms=args.max_perms)
        name, perms, edges = "cayley", cayley.perms, cayley.edges()
        head: dict[str, Iterable] = {"nodes": labels(perms)}
    elif what == "skeleton":
        try:
            k = parse_int(karg)
        except ValueError:
            raise ParseError(f"bad skeleton rank in {args.what!r}") from None
        try:
            skel = polytope.build_skeleton(graph, k, max_perms=args.max_perms)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        name, perms, edges = "skeleton", skel.vertex_reps, skel.vertex_edges()
        head = {"faces_per_rank": skel.f_vector()[:k + 1]}
    else:
        raise ParseError(f"unknown export target {args.what!r}")
    if args.format == "dot":
        _write_chunks(dot_graph(name, perms, edges))
    else:
        _write_chunks(_json_pieces({**head, "edges": edges}))
    return EXIT_OK


def _cap(text: str) -> int:
    """A ``--max-perms`` value: a non-negative integer in ASCII decimal digits."""
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
    _subcommand(sub, "verify", cmd_verify, "check the abstract-polytope axioms", VERIFY_MAX_PERMS)
    _subcommand(sub, "analyze", cmd_analyze, "symmetry group and facet census", VERIFY_MAX_PERMS)
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
    code = EXIT_OK
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: stop writing, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
