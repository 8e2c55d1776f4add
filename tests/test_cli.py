import json
import os
import subprocess
import sys
import time

import pytest

from graphicahedron.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


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


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "build", "--file", "/nonexistent/graph.txt")
    assert code == 1


def test_bad_preset_exits_1(capsys):
    code, _, err = run(capsys, "build", "--preset", "dodecahedron")
    assert code == 1
    assert "unknown preset" in err


def test_usage_error_exits_1(capsys):
    assert main(["build"]) == 1  # no graph source


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
        ("analyze", "--preset", "paw", "--max-flags", "-1"),
        ("export", "--preset", "paw", "--what", "cayley", "--max-perms", "-5"),
    ],
)
def test_negative_caps_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "non-negative" in err


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


def test_verify_corrupted_poset_exits_4(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--preset", "path:2", "--corrupt", "drop-face"
    )
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
def test_verify_drop_face_witness_is_pinned(capsys, preset, witness):
    code, report, _ = run_json(capsys, "verify", "--preset", preset, "--corrupt", "drop-face")
    assert code == 4
    assert report["axioms"]["witness"] == witness


def test_verify_dropped_adjacency_exits_4(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--preset", "cycle:3", "--corrupt", "drop-adjacency"
    )
    assert code == 4
    assert report["axioms"]["strong_flag_connected"] == "fail"


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
    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "graphicahedron.cli", "analyze", "--preset", "paw"],
            capture_output=True,
            env=env,
            check=True,
        ).stdout

    assert run_once("1") == run_once("2")


def test_internal_inconsistency_exits_5(capsys, monkeypatch):
    from graphicahedron import cli
    from graphicahedron.errors import InternalInconsistencyError

    def boom(*args, **kwargs):
        raise InternalInconsistencyError("classifiers disagree")

    monkeypatch.setattr(cli.classify, "facet_census", boom)
    code, _, err = run(capsys, "analyze", "--preset", "paw")
    assert code == 5
    assert "disagree" in err


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


def test_export_unknown_target_exits_1(capsys):
    code, _, err = run(capsys, "export", "--preset", "paw", "--what", "hologram")
    assert code == 1


@pytest.mark.parametrize(
    "source, what",
    [
        ("preset", "skeleton:9"),
        ("preset", "skeleton:-1"),
        ("directory", "cayley"),
        ("non-ascii", "cayley"),
    ],
)
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, source, what):
    if source == "preset":
        graph = ["--preset", "paw"]
    elif source == "directory":
        graph = ["--file", str(tmp_path)]
    else:
        path = tmp_path / "graph.txt"
        path.write_bytes("# caf\u00e9\n1 2\n".encode("utf-8"))
        graph = ["--file", str(path)]
    code, out, err = run(capsys, "export", *graph, "--what", what)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
