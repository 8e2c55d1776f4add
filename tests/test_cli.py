import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import greatest_face, id_of

import graphicahedron
from graphicahedron import build_cayley, preset_graph
from graphicahedron.cayley import SortedEdges
from graphicahedron.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


# The faces a defective store lacks: its first facet or its greatest face.
DROPPED = {
    "first-facet": lambda P: P.first_of_rank(P.rank - 1),
    "greatest-face": lambda P: id_of(P, greatest_face(P)),
}


def build_without(monkeypatch, dropped):
    """Make ``polytope.build`` return the store without the face whose id
    ``dropped`` names: the CLI has no defect switch, so a test injects the
    defect."""
    from graphicahedron import polytope

    real = polytope.build

    def build(graph, max_perms=polytope.DEFAULT_MAX_PERMS):
        store = real(graph, max_perms=max_perms)
        return polytope.drop_face(store, DROPPED[dropped](store))

    monkeypatch.setattr(polytope, "build", build)


def test_build_hexagon(capsys):
    code, report, _ = run_json(capsys, "build", "--preset", "path:2")
    assert code == 0
    assert report["f_vector"] == [6, 6, 1]
    assert report["flag_count"] == 12
    assert report["graph"] == {"p": 3, "q": 2, "edges": [[1, 2], [2, 3]]}


def test_build_paw_flag_count(capsys):
    code, report, _ = run_json(capsys, "build", "--preset", "paw")
    assert code == 0
    assert report["flag_count"] == 576


def test_build_inline_edges(capsys):
    code, report, _ = run_json(capsys, "build", "--edges", "1-2,2-3")
    assert code == 0
    assert report["f_vector"] == [6, 6, 1]


def test_build_from_file(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("# triangle\n1 2\n1 3\n2 3\n")
    code, report, _ = run_json(capsys, "build", "--file", str(path))
    assert code == 0
    assert report["f_vector"] == [6, 9, 3, 1]


def test_duplicate_edge_exits_1(capsys):
    code, out, err = run(capsys, "build", "--edges", "1-2,1-2")
    assert code == 1
    assert out == ""
    assert "duplicate" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p-1", "bad edge 'p-1', expected i-j with positive labels"),
        ("1-2#junk", "bad edge '1-2#junk', expected i-j with positive labels"),
        ("1-2,2-3#,3-4", "bad edge '2-3#', expected i-j with positive labels"),
        ("x-3", "bad edge 'x-3', expected i-j with positive labels"),
        ("1-2, 2-3", "bad edge ' 2-3', expected i-j with positive labels"),
        ("1-2,,2-3", "bad edge '', expected i-j with positive labels"),
        ("1-2-3", "bad edge '1-2-3', expected i-j with positive labels"),
        ("0-1", "bad edge '0-1', expected i-j with positive labels"),
        ("1-+2", "bad edge '1-+2', expected i-j with positive labels"),
        ("1-\u0662", "bad edge '1-\u0662', expected i-j with positive labels"),
        ("1-2,3-3", "loop edge '3-3'"),
        ("1-2,2-1", "duplicate edge '2-1'"),
    ],
)
def test_inline_edges_take_only_i_j_pairs(capsys, text, message):
    code, out, err = run(capsys, "build", "--edges", text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "build", "--file", "/nonexistent/graph.txt")
    assert code == 1


def test_bad_preset_exits_1(capsys):
    code, _, err = run(capsys, "build", "--preset", "dodecahedron")
    assert code == 1
    assert "unknown preset" in err


@pytest.mark.parametrize(
    "preset", ["path:+3", "path:1_0", "path:\u0663", "path: 3", "cycle:4 ", "paw:", "fork:", "path:"]
)
def test_preset_size_takes_ascii_digits_only(capsys, preset):
    code, out, err = run(capsys, "build", "--preset", preset)
    assert code == 1
    assert out == ""
    assert err == f"error: bad preset size in {preset!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("analyze", "--edges", "-1-2"),
        ("verify", "--preset", "paw", "--max-perms"),
        ("bogus",),
        (),
        ("build", "--preset", "paw", "--file\nname"),
        ("verify", "--preset", "paw", "--max-perms", "+720"),
        ("verify", "--preset", "paw", "--max-perms", "7_20"),
        ("verify", "--preset", "paw", "--max-perms", " 720 "),
        ("verify", "--preset", "paw", "--max-perms", "\u0667\u0662\u0660"),
        ("analyze", "--preset", "paw", "--max-flags", "5_000"),
        ("verify", "--preset", "paw", "--corrupt", "drop-face"),
        ("analyze", "--preset", "paw", "--max-flags", "5000"),
    ],
    ids=[
        "no-graph-source", "value-like-an-option", "missing-value", "unknown-subcommand", "no-subcommand",
        "unknown-argument-with-a-line-break", "max-perms-plus", "max-perms-underscore", "max-perms-blanks",
        "max-perms-arabic-indic", "max-flags-underscore", "no-defect-switch", "no-flag-cap",
    ],
)
def test_usage_error_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err


@pytest.mark.parametrize(
    "argv", [(), ("build",), ("verify",), ("analyze",), ("export",)], ids=lambda argv: " ".join(argv) or "top-level"
)
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: graphicahedron")


def test_disconnected_exits_2(capsys):
    code, out, err = run(capsys, "build", "--edges", "1-2,3-4")
    assert code == 2
    assert "connected" in err


def test_capacity_exits_3(capsys):
    code, _, err = run(capsys, "build", "--preset", "path:8")  # 9! > 5040
    assert code == 3
    assert "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--edges", "1-300000"),
        ("build", "--edges", "1-3000"),
        ("verify", "--edges", "1-3000"),
        ("export", "--edges", "1-3000", "--what", "cayley"),
        ("build", "--preset", "star:99999999999999999999999"),
        ("build", "--preset", "path:30000000"),
        ("verify", "--preset", "cycle:30000000"),
        ("export", "--preset", "path:30000000", "--what", "skeleton:1"),
    ],
)
def test_huge_graph_exits_3_before_any_factorial(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--preset", "paw", "--max-perms", "-1"),
        ("verify", "--preset", "paw", "--max-perms", "-720"),
        ("analyze", "--preset", "paw", "--max-perms", "-1"),
        ("export", "--preset", "paw", "--what", "cayley", "--max-perms", "-5"),
    ],
)
def test_negative_caps_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "non-negative" in err


# verify and analyze walk p!·2^q vertex-figure faces, at most 512 times
# --max-perms: at the default 720, K5 and 9 edges on 6 vertices are admitted,
# and 10 edges on 6 vertices or K6 are refused.
K5, K6 = (",".join(f"{i}-{j}" for i, j in itertools.combinations(range(1, n + 1), 2)) for n in (5, 6))
Q9 = "1-2,1-3,1-4,2-3,2-5,3-6,4-5,4-6,5-6"
Q10 = "1-2,1-3,1-4,1-5,2-3,2-6,3-6,4-5,4-6,5-6"


@pytest.mark.parametrize("edges", [K5, Q9], ids=["K5", "q9"])
def test_the_walk_bound_admits_k5_and_9_edges_on_6_vertices(edges):
    from graphicahedron import polytope
    from graphicahedron.cli import VERIFY_MAX_PERMS, _parse_inline_edges

    polytope.check_walkable(_parse_inline_edges(edges), VERIFY_MAX_PERMS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--preset", "path:5", "--max-perms", "719"), "6! = 720 permutations exceeds the cap of 719"),
        (("--preset", "path:7", "--max-perms", "5040"), "8! = 40320 permutations exceeds the cap of 5040"),
        (("--preset", "path:6", "--timings"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,3-4,5-6,6-7"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--preset", "path:6"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,1-3,1-4,2-3,2-4,3-4,5-6"), "the graphicahedron is only defined for connected graphs"),
        (("--edges", K6), "6! * 2^15 vertex-figure faces exceed the cap of 512 * 720"),
        (("--edges", Q10), "6! * 2^10 vertex-figure faces exceed the cap of 512 * 720"),
    ],
)
def test_verify_refuses_before_building_any_face(capsys, monkeypatch, argv, message):
    from graphicahedron import polytope

    def forbidden(*args, **kwargs):
        raise AssertionError("a face was enumerated")

    monkeypatch.setattr(polytope, "faces_of_rank", forbidden)
    code, out, err = run(capsys, "verify", *argv)
    assert code == (2 if "connected" in message else 3)
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("preset", ["path:5", "star:5", "cycle:6"])
def test_verify_at_p6_passes_at_the_defaults(capsys, preset):
    code, report, err = run_json(capsys, "verify", "--preset", preset)
    assert (code, err) == (0, "")
    assert report["axioms"] == {"diamond": "pass", "strong_flag_connected": "pass", "simple": "pass"}


def test_verify_at_p6_reports_a_dropped_face(capsys, monkeypatch):
    build_without(monkeypatch, "first-facet")
    code, report, _ = run_json(capsys, "verify", "--preset", "path:5")
    assert code == 4
    assert report["axioms"]["diamond"] == "fail"
    assert report["axioms"]["witness"] == (
        "1 faces between K{1,2,3}:a(1,2,3,4,5,6) and K{1,2,3,4,5}:a(1,2,3,4,5,6), expected 2"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--edges", K6), "6! * 2^15 vertex-figure faces exceed the cap of 512 * 720"),
        (("--edges", Q10), "6! * 2^10 vertex-figure faces exceed the cap of 512 * 720"),
        (("--edges", K6, "--max-perms", "5040"), "6! * 2^15 vertex-figure faces exceed the cap of 512 * 5040"),
        (("--preset", "path:6"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,3-4,5-6,6-7"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,1-3,1-4,2-3,2-4,3-4,5-6"), "the graphicahedron is only defined for connected graphs"),
    ],
)
def test_analyze_refuses_before_building_any_face(capsys, monkeypatch, argv, message):
    from graphicahedron import polytope

    def forbidden(*args, **kwargs):
        raise AssertionError("a face was enumerated")

    monkeypatch.setattr(polytope, "faces_of_rank", forbidden)
    code, out, err = run(capsys, "analyze", *argv)
    assert code == (2 if "connected" in message else 3)
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("preset, order", [("path:5", 1440), ("star:5", 86400), ("cycle:6", 8640)])
def test_analyze_at_p6_passes_at_the_defaults(capsys, preset, order):
    code, report, err = run_json(capsys, "analyze", "--preset", preset)
    assert (code, err) == (0, "")
    assert report["symmetry"]["flag_aut_order"] == report["symmetry"]["constructed_order"] == order


def test_flag_count_past_the_int_digit_limit_is_named_not_printed(capsys):
    # the complete graph on 60 vertices has 60! <= 10**82 permutations and
    # 60!·2^1770 vertex-figure faces, a number past int-to-str's digit limit
    edges = ",".join(f"{i}-{j}" for i, j in itertools.combinations(range(1, 61), 2))
    for command in ("verify", "analyze"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--edges", edges, "--max-perms", str(10**82))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: 60! * 2^1770 vertex-figure faces exceed the cap of 512 * {10**82}\n"


def test_max_perms_override(capsys):
    code, report, _ = run_json(
        capsys, "build", "--preset", "cycle:3", "--max-perms", "6"
    )
    assert code == 0
    code, _, _ = run(capsys, "build", "--preset", "cycle:4", "--max-perms", "6")
    assert code == 3


def test_verify_passes(capsys):
    code, report, _ = run_json(capsys, "verify", "--preset", "cycle:3")
    assert code == 0
    assert report["axioms"] == {
        "diamond": "pass",
        "strong_flag_connected": "pass",
        "simple": "pass",
    }


def test_verify_fork_passes(capsys):
    code, report, _ = run_json(capsys, "verify", "--preset", "fork")
    assert code == 0
    assert all(v == "pass" for v in report["axioms"].values())


@pytest.mark.parametrize("dropped", sorted(DROPPED))
def test_analyze_of_a_store_that_fails_the_frame_check_exits_5(capsys, monkeypatch, dropped):
    build_without(monkeypatch, dropped)
    code, out, err = run(capsys, "analyze", "--preset", "paw")
    assert (code, out, err) == (5, "", "error: poset is not thin\n")


def test_verify_corrupted_poset_exits_4(capsys, monkeypatch):
    build_without(monkeypatch, "first-facet")
    code, report, _ = run_json(capsys, "verify", "--preset", "path:2")
    assert code == 4
    assert report["axioms"]["diamond"] == "fail"
    assert "witness" in report["axioms"]


@pytest.mark.parametrize(
    "preset, witness",
    [
        ("path:2", "1 faces between K{}:a(1,2,3) and K{1,2}:a(1,2,3), expected 2"),
        ("paw", "1 faces between K{1,2}:a(1,2,3,4) and K{1,2,3,4}:a(1,2,3,4), expected 2"),
        ("fork", "1 faces between K{1,2}:a(1,2,3,4,5) and K{1,2,3,4}:a(1,2,3,4,5), expected 2"),
    ],
)
def test_verify_drop_face_witness_is_pinned(capsys, monkeypatch, preset, witness):
    build_without(monkeypatch, "first-facet")
    code, report, _ = run_json(capsys, "verify", "--preset", preset)
    assert code == 4
    assert report["axioms"]["witness"] == witness


def test_verify_dropped_greatest_face_exits_4(capsys, monkeypatch):
    build_without(monkeypatch, "greatest-face")
    code, report, _ = run_json(capsys, "verify", "--preset", "cycle:3")
    assert code == 4
    assert report["axioms"] == {
        "diamond": "pass",
        "strong_flag_connected": "fail",
        "simple": "fail",
        "witness": "K{}:a(1,2,3) lies on no flag",
    }


def test_analyze_star3(capsys):
    code, report, _ = run_json(capsys, "analyze", "--preset", "star:3")
    assert code == 0
    sym = report["symmetry"]
    assert sym["regular"] is True
    assert sym["constructed_order"] == 144
    assert sym["flag_aut_order"] == 144
    assert sym["vertex_transitive"] is True


def test_analyze_paw_census(capsys):
    code, report, _ = run_json(capsys, "analyze", "--preset", "paw")
    assert code == 0
    census = {entry["type"]: entry["count"] for entry in report["facet_census"]}
    assert census == {"permutahedron(3)": 2, "toroid_63_11": 4, "toroid_63_22": 1}
    assert report["symmetry"]["regular"] is False


def test_analyze_path3_not_regular(capsys):
    code, report, _ = run_json(capsys, "analyze", "--preset", "path:3")
    assert code == 0
    assert report["symmetry"]["regular"] is False


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "build", "--preset", "fork")
    _, second, _ = run(capsys, "build", "--preset", "fork")
    assert first == second
    _, a1, _ = run(capsys, "analyze", "--preset", "paw")
    _, a2, _ = run(capsys, "analyze", "--preset", "paw")
    assert a1 == a2


def test_deterministic_across_processes_and_hash_seeds():
    src = str(Path(graphicahedron.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-m", "graphicahedron.cli", "analyze", "--preset", "paw"],
            capture_output=True,
            env=env,
            check=True,
        ).stdout

    assert run_once("1") == run_once("2")


def test_only_export_loads_array():
    # array holds the Cayley tables, and is imported where they are built
    src = str(Path(graphicahedron.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "\n".join([
        "import contextlib, io, sys",
        "from graphicahedron import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for command in ('build', 'verify', 'analyze'):",
        "        assert cli.main([command, '--preset', 'fork']) == 0, command",
        "    assert 'array' not in sys.modules",
        "    assert cli.main(['export', '--preset', 'fork', '--what', 'cayley']) == 0",
        "assert 'array' in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_import_loads_no_dataclasses_machinery():
    # the records are named tuples; a fresh interpreter, since pytest has
    # already imported these modules itself
    src = str(Path(graphicahedron.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "\n".join([
        "import sys",
        "import graphicahedron, graphicahedron.cli",
        "loaded = sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules))",
        "assert loaded == [], loaded",
    ])
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_internal_inconsistency_exits_5(capsys, monkeypatch):
    from graphicahedron import cli
    from graphicahedron.errors import InternalInconsistencyError

    def boom(*args, **kwargs):
        raise InternalInconsistencyError("classifiers disagree")

    monkeypatch.setattr(cli.classify, "facet_census", boom)
    code, _, err = run(capsys, "analyze", "--preset", "paw")
    assert code == 5
    assert "disagree" in err


@pytest.mark.parametrize("error, code", [
    ("ParseError", 1), ("DisconnectedGraphError", 2), ("CapacityError", 3), ("GraphicahedronError", 1),
])
def test_library_errors_exit_with_their_codes(capsys, monkeypatch, error, code):
    from graphicahedron import cli, errors

    def boom(*args, **kwargs):
        raise getattr(errors, error)("no good")

    monkeypatch.setattr(cli.polytope, "faces_of_rank", boom)
    assert run(capsys, "build", "--preset", "paw") == (code, "", "error: no good\n")


def test_timings_are_opt_in(capsys):
    _, report, _ = run_json(capsys, "build", "--preset", "paw")
    assert "timings" not in report
    _, report, _ = run_json(capsys, "build", "--preset", "paw", "--timings")
    assert "timings" in report


def test_export_cayley_dot(capsys):
    code, out, _ = run(capsys, "export", "--preset", "path:2", "--what", "cayley", "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 6
    assert out.count(" -- ") == 6
    colors = {line.split('color="')[1].split('"')[0] for line in out.splitlines() if "color=" in line}
    assert len(colors) == 2


def test_export_skeleton_equals_cayley_edges(capsys):
    code, skel, _ = run_json(
        capsys, "export", "--preset", "cycle:3", "--what", "skeleton:1", "--format", "json"
    )
    assert code == 0
    code, cay, _ = run_json(
        capsys, "export", "--preset", "cycle:3", "--what", "cayley", "--format", "json"
    )
    assert code == 0
    assert sorted(map(tuple, skel["edges"])) == sorted(map(tuple, cay["edges"]))


def test_export_skeleton_zero_is_isolated(capsys):
    code, skel, _ = run_json(
        capsys, "export", "--preset", "path:2", "--what", "skeleton:0", "--format", "json"
    )
    assert code == 0
    assert skel["faces_per_rank"] == [6]
    assert skel["edges"] == []


@pytest.mark.parametrize("what", ["skeleton:0", "skeleton:1"])
def test_export_skeleton_of_an_edgeless_graph_says_why_it_exits_1(tmp_path, capsys, what):
    path = tmp_path / "graph.txt"
    path.write_text("p 1\n")
    code, out, err = run(capsys, "export", "--file", str(path), "--what", what)
    assert (code, out) == (1, "")
    assert err == "error: a graph without edges has no proper skeleton\n"


def test_export_unknown_target_exits_1(capsys):
    code, _, err = run(capsys, "export", "--preset", "paw", "--what", "hologram")
    assert code == 1


@pytest.mark.parametrize(
    "source, what",
    [
        ("preset", "skeleton:9"),
        ("preset", "skeleton:-1"),
        ("preset", "skeleton:+1"),
        ("preset", "skeleton:\u0661"),
        ("preset", "cayley:3"),
        ("directory", "cayley"),
        ("non-ascii", "cayley"),
        ("empty-edges", "cayley"),
        ("empty-file-name", "cayley"),
        ("nul-in-file-name", "cayley"),
    ],
)
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, source, what):
    if source == "preset":
        graph = ["--preset", "paw"]
    elif source == "directory":
        graph = ["--file", str(tmp_path)]
    elif source == "empty-edges":
        graph = ["--edges", ""]
    elif source == "empty-file-name":
        graph = ["--file", ""]
    elif source == "nul-in-file-name":
        graph = ["--file", "graph\x00.txt"]
    else:
        path = tmp_path / "graph.txt"
        path.write_bytes("# caf\u00e9\n1 2\n".encode("utf-8"))
        graph = ["--file", str(path)]
    code, out, err = run(capsys, "export", *graph, "--what", what)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def xor_matchings(n, masks):
    """The edges whose color c pairs u with u ^ masks[c]: perfect matchings
    of range(n) when n is a multiple of 4 and every mask is 1, 2 or 3."""
    return SortedEdges(n, [(c, array("i", [u ^ m for u in range(n)])) for c, m in enumerate(masks)])


@pytest.mark.parametrize(
    "payload",
    [
        {"faces_per_rank": [6], "edges": SortedEdges(6, ())},
        {"faces_per_rank": [24, 48], "edges": build_cayley(preset_graph("paw")).edges()},
        {"nodes": ["1,2", "2,1"], "edges": build_cayley(preset_graph("path", 1)).edges()},
        # rows across a write-chunk boundary, an empty list first, strings
        # the encoder escapes
        {"faces_per_rank": [6000], "edges": xor_matchings(6000, (1, 2, 3))},
        {"edges": SortedEdges(4, ()), "faces_per_rank": [1, 2]},
        {"nodes": [f'{i},"\\\u00e9' for i in range(5000)]},
    ],
)
def test_json_writer_matches_the_indenting_encoder(capsys, payload):
    # edges are written as [u, v, color + 1] rows, every other list item by item
    from graphicahedron.cli import _json_pieces, _write_chunks

    def rows(values):
        return [[u, v, color + 1] for u, v, color in values] if isinstance(values, SortedEdges) else values

    def once(values):
        return values if isinstance(values, SortedEdges) else (row for row in values)

    _write_chunks(_json_pieces({key: once(values) for key, values in payload.items()}))
    expected = json.dumps({key: rows(values) for key, values in payload.items()}, indent=2)
    assert capsys.readouterr().out == expected + "\n"


def test_build_keeps_no_store(capsys, monkeypatch):
    # build counts the faces block by block: making a store would hold them all
    from graphicahedron import polytope

    _, expected, _ = run(capsys, "build", "--preset", "cycle:4")

    def forbidden(*args, **kwargs):
        raise AssertionError("build made a Graphicahedron")

    monkeypatch.setattr(polytope.Graphicahedron, "__init__", forbidden)
    assert run(capsys, "build", "--preset", "cycle:4") == (0, expected, "")


def test_export_writes_in_chunks(monkeypatch):
    # every format and target writes in chunks: no write holds a quarter of
    # the output, and each joins about _CHUNK_PIECES pieces
    from graphicahedron import build_cayley, cli, preset_graph

    class Recording(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    cycle7 = build_cayley(preset_graph("cycle", 7), 5040)
    cycle7_json = json.dumps({
        "nodes": [",".join(str(v + 1) for v in a) for a in cycle7.perms],
        "edges": [[u, v, c + 1] for u, v, c in sorted(cycle7.edges())],
    }, indent=2) + "\n"
    runs = [
        ("export --preset cycle:7 --what cayley --max-perms 5040", LONG_RUNS[0][2]),
        ("export --preset star:6 --what skeleton:1 --format json --max-perms 5040", LONG_RUNS[1][2]),
        ("export --preset cycle:7 --what cayley --format json --max-perms 5040",
         hashlib.sha256(cycle7_json.encode()).hexdigest()),
    ]
    for argv, digest in runs:
        out = Recording()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv.split()) == 0
        text = out.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
        assert max(out.sizes) <= len(text) / 4, argv
        assert len(out.sizes) <= text.count("\n") / cli._CHUNK_PIECES + 1, argv


def test_a_closed_stdout_ends_quietly():
    # the reader takes one line and closes the pipe; the run goes on writing
    src = str(Path(graphicahedron.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["export", "--preset", "cycle:7", "--what", "cayley", "--max-perms", "5040"]
    with subprocess.Popen(
        [sys.executable, "-m", "graphicahedron.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        assert child.stdout.readline() == b"graph cayley {\n"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(), err) == (0, b"")


# stdout sha256 and exit code of each run, recorded before faces were
# enumerated by coset shape; the last two fail before any face is built.
PINNED_RUNS = [
    ("build --preset paw", 0,
     "067561f1f4eb250c08f7703dde12105a28f84067e890def0ef5ca2d953858c32"),
    ("build --preset fork", 0,
     "9a3a3cfb8651f8a343f71c6c1a9d2001279876aab5419678cda99c3672eb29b4"),
    ("build --preset cycle:5", 0,
     "babf6be40a33d357216003983f0218ef64af3ea78558bb3c13c2fb9f70e884bb"),
    ("build --preset path:5", 0,
     "f93ed5201a3cdedbaac9887c4f6ac14d3830f7dcaca9e05723807842524ea4ca"),
    ("build --preset star:5", 0,
     "a10801d2733fd6df549a2447a80ee7c378114d16880b91fb6d4184622aefb79f"),
    ("export --preset paw --what skeleton:0 --format json", 0,
     "ae552e9f8d4f450ddedd6c902d31d82de3f9fd755f9308ba5994d2faade92aea"),
    ("export --preset paw --what skeleton:0 --format dot", 0,
     "6c1beac98def121a156bdd0a73dbd86414ef7fc7de7ae48dae2673396bca1dbc"),
    ("export --preset paw --what skeleton:1 --format json", 0,
     "e2e9859e7bb867cf6248d529e7603d74b030dc34efa0a1c66b7e9a187f0fce8d"),
    ("export --preset paw --what skeleton:1 --format dot", 0,
     "e4a20dcf824d7de917f7e34fc8cc3db1bba782e5b4caef64bb91947aa6c61119"),
    ("export --preset paw --what skeleton:2 --format json", 0,
     "3a986380670066457028b251bc0d7cd65bff335cca21b09da9d713bf07222078"),
    ("export --preset paw --what skeleton:2 --format dot", 0,
     "e4a20dcf824d7de917f7e34fc8cc3db1bba782e5b4caef64bb91947aa6c61119"),
    ("export --preset fork --what skeleton:0 --format json", 0,
     "253d360f95c986c40a6495ff7a82860c11ee0e5a2ac1ef1e9c641d40a4fd7caf"),
    ("export --preset fork --what skeleton:0 --format dot", 0,
     "6d1c87812be9af0a058c5625a92dc21b38a78dbd372f93adb23b44df14b0018b"),
    ("export --preset fork --what skeleton:1 --format json", 0,
     "bfd4dbe95655e4ee7a1a9c6949af9a841fcd2aea62b96dc74a86c4eeb80bcb86"),
    ("export --preset fork --what skeleton:1 --format dot", 0,
     "5cfbc28a9eb15e709cbfe7bde3092f3ddc0004db695aad4618cf10944309227c"),
    ("export --preset fork --what skeleton:2 --format json", 0,
     "9d94a817dd818b4679cf41d2f288ab3a641d4feaaaaf9994152ba3b24c803a4f"),
    ("export --preset fork --what skeleton:2 --format dot", 0,
     "5cfbc28a9eb15e709cbfe7bde3092f3ddc0004db695aad4618cf10944309227c"),
    ("export --preset cycle:5 --what skeleton:0 --format json", 0,
     "253d360f95c986c40a6495ff7a82860c11ee0e5a2ac1ef1e9c641d40a4fd7caf"),
    ("export --preset cycle:5 --what skeleton:0 --format dot", 0,
     "6d1c87812be9af0a058c5625a92dc21b38a78dbd372f93adb23b44df14b0018b"),
    ("export --preset cycle:5 --what skeleton:1 --format json", 0,
     "4be92514f2687bca7659c8197cc6a75c4163a86e65e5e211ac24568f62155463"),
    ("export --preset cycle:5 --what skeleton:1 --format dot", 0,
     "d5842462af1589ae4adfffb158722a0c99346b0f3172a121a37582de8939930a"),
    ("export --preset cycle:5 --what skeleton:2 --format json", 0,
     "933296b71c21de99637a0f6af34c544a2e92a9592b2faf1d5a5c4012ae646b6a"),
    ("export --preset cycle:5 --what skeleton:2 --format dot", 0,
     "d5842462af1589ae4adfffb158722a0c99346b0f3172a121a37582de8939930a"),
    ("export --preset fork --what cayley --format dot", 0,
     "a3385d5247134de6d6e16b01fce3b8ebb4ba767a73ddeb7abd5480a8b639eaba"),
    # verify and analyze runs, recorded before faces were stored as
    # integer ids: they pin the face ids in witnesses and sample_facet_id.
    ("verify --preset paw", 0,
     "2661288e5af3112894a203c88003928441635f2031ce0f74be478399a3850aef"),
    ("verify --preset fork", 0,
     "a91fbf29020e3414139b76f0019036c57f5088148029bd130835f4874404e9d5"),
    ("verify --preset path:4", 0,
     "85a6a4e3d9405a1be95a90bb688ef139d4bf813183d8959348259d326d0a190a"),
    ("verify --preset star:4", 0,
     "6fa61fd65a39ae5dbf5006d1ec537881e370a04bfa967becb760dccd8cd9b896"),
    ("verify --preset cycle:5", 0,
     "68941e1fa3b5ddc81c4ed5577601f77f37a71ffbee53a742f56ab4179f43852e"),
    ("analyze --preset paw", 0,
     "87f09b7f12d9316b1a67b473215acea339979efb9a7c8c6a04d621b2de7cf4e1"),
    ("analyze --preset fork", 0,
     "26d825c87b332b33f09548c0cf66749ca240f2925eeaf5465443774c6f671dbd"),
    ("analyze --preset cycle:4", 0,
     "df68f9c3fe86b420499408ceea0d6cbadfc4692b2a2bb258170dc8102ecf01d2"),
    ("analyze --preset path:4", 0,
     "e1e55937fae706231d81dd8d50513ab282ff676cdf40c56add803f95bc6181b2"),
    ("analyze --preset star:4", 0,
     "2df81f056194dd75022ed4815dfcad47bf67659ab596581cfc4ef79cc996fe56"),
    ("export --edges 1-2,3-4 --what skeleton:1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("export --preset paw --what skeleton:9", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


# Outputs longer than one write chunk, recorded while each export was one
# write and build kept its store.
LONG_RUNS = [
    ("export --preset cycle:7 --what cayley --format dot --max-perms 5040", 0,
     "06852c577a8496301f77fd70044ae3b4ff7f2b9e7fabeace90d94f6509f3bbf8"),
    ("export --preset star:6 --what skeleton:1 --format json --max-perms 5040", 0,
     "5f64c99db0588276d668cfb6cb3e0258122b35ddf11c7af8cfa40f7f6b1d219e"),
    ("export --preset cycle:6 --what cayley --format json", 0,
     "1945e6154ceb2f1d4d5a9261ba0754ad18f5a751132ab726e6f693b9507ba851"),
    ("export --preset path:6 --what skeleton:2 --format dot --max-perms 5040", 0,
     "9b6f83afd48b1db9e46c43d400ba9c57f882c31ea6b908be57a6a925e604237a"),
    ("build --preset path:6 --max-perms 5040", 0,
     "9d5259fb874c0016d2b09930454741d1dbf29dac325ff6e39315f9c11c593dbb"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_RUNS + LONG_RUNS)
def test_cli_stdout_is_pinned(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code in (0, 4):  # a report, whether the axioms pass or fail
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


# verify on stores with a face dropped.  The first-facet reports were
# recorded when the CLI dropped that face itself.  The greatest-face
# reports pass the diamond check and fail strong flag-connectedness with a
# vertex on no flag.
DEFECT_RUNS = [
    ("paw", "first-facet", "250dd6dd3ed33df79eae342461078970f7bb7f30aa021cb6182291b57b09229c"),
    ("paw", "greatest-face", "e964a677af6c4be5912aa6211d14764f91d32a8412aa7185ffd3b98ee206d7ad"),
    ("fork", "first-facet", "b3603c76658e1f8e26178784698b06503650980c9ac2272ee52f87657d3704e7"),
    ("fork", "greatest-face", "c14042ddeb8b1ca87cb08b277e532abf97517b60425a8620a8d4f1481f476fe8"),
    ("path:4", "first-facet", "5599c5480887c5b4e94c9421092909cd3a7d5f024db8d7621040c818899657ec"),
    ("path:4", "greatest-face", "5bac1f6c1f3629b038c57ce238b5a577b4198c6c015802b95d2f0c27c5e6f37d"),
    ("star:4", "first-facet", "47338f3586e89a0b55e45d43d9176624f1e2ae734ed1319825ce3327e6730c01"),
    ("star:4", "greatest-face", "c3d61d52573fda46c0904362d27b729e2388db37a5520141e2232819cf853202"),
    ("cycle:5", "first-facet", "fbf77989f1699f431554c4a124be50bdb9d212553f1daa3bbdf1fc967b91669e"),
    ("cycle:5", "greatest-face", "bda85a75b2c3de24b407b16cb6faa815198fef762e93df48ee990001259c5ff5"),
]


@pytest.mark.parametrize("preset, dropped, digest", DEFECT_RUNS)
def test_defect_reports_are_pinned(capsys, monkeypatch, preset, dropped, digest):
    build_without(monkeypatch, dropped)
    code, out, err = run(capsys, "verify", "--preset", preset)
    assert (code, err) == (4, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if dropped == "greatest-face":
        report = json.loads(out)
        identity = ",".join(str(v) for v in range(1, report["graph"]["p"] + 1))
        axioms = report["axioms"]
        assert (axioms["diamond"], axioms["strong_flag_connected"]) == ("pass", "fail")
        assert axioms["witness"] == f"K{{}}:a({identity}) lies on no flag"


# Arbitrary text, edge lists on up to 6 vertices, which reach the
# connectivity and capacity checks, and trees on up to 5 vertices (vertex
# k + 2 hangs from a vertex up to k + 1), which run the whole command.
PAIRS = st.one_of(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=6, unique_by=frozenset,
    ),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda hangs: [(min(h, k + 1), k + 2) for k, h in enumerate(hangs)]
    ),
)
EDGE_TEXT = st.one_of(st.text(max_size=30), PAIRS.map(lambda es: ",".join(f"{i}-{j}" for i, j in es)))
FILE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    PAIRS.map(lambda es: "\n".join(f"{i} {j}" for i, j in es)),
)
COMMANDS = st.sampled_from([("analyze",), ("verify", "--max-perms", "24")])


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in range(6)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(EDGE_TEXT, COMMANDS)
def test_any_edges_text_ends_in_an_exit_code_and_one_line(text, command):
    code, _, err = run_quietly(*command, f"--edges={text}")
    assert_clean_exit(code, err)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(FILE_TEXT, COMMANDS)
def test_any_graph_file_ends_in_an_exit_code_and_one_line(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, _, err = run_quietly(*command, "--file", path)
    assert_clean_exit(code, err)


# A subcommand, a graph source option with a value, then up to three
# options, each with or without a value, or stray tokens: every token on
# its own, drawn from the subcommand and option names, values they take
# and arbitrary text.  ``--corrupt`` with ``drop-face``, and ``--max-flags``,
# stand for options the CLI no longer has.  The trailing --max-perms 24 wins
# over any earlier value, so no run builds a graph on more than 4 vertices.
SUBCOMMANDS = ["build", "verify", "analyze", "export"]
OPTIONS = st.sampled_from([
    "--file", "--edges", "--preset", "--max-perms", "--max-flags", "--timings", "--what", "--format",
    "--corrupt", "--help", "-h",
])
VALUES = st.one_of(
    st.sampled_from(
        SUBCOMMANDS + ["paw", "path:2", "1-2,2-3", "1-2,3-4", "cayley", "skeleton:1", "json", "drop-face"]
    ),
    st.text(max_size=12),
)
ARGV = st.tuples(
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from(["--file", "--edges", "--preset"]),
    VALUES,
    st.lists(st.one_of(st.tuples(OPTIONS, VALUES), st.tuples(st.one_of(OPTIONS, VALUES))), max_size=3),
).map(lambda drawn: [*drawn[:3], *itertools.chain.from_iterable(drawn[3])])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ARGV)
def test_any_argv_ends_in_an_exit_code_and_one_line(argv):
    code, _, err = run_quietly(*argv, "--max-perms", "24")
    assert_clean_exit(code, err)
