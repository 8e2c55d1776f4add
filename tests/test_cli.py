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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphicahedron
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


@pytest.mark.parametrize("preset", ["path:+3", "path:1_0", "path:\u0663", "path: 3", "cycle:4 "])
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
    ],
    ids=[
        "no-graph-source", "value-like-an-option", "missing-value", "unknown-subcommand", "no-subcommand",
        "unknown-argument-with-a-line-break", "max-perms-plus", "max-perms-underscore", "max-perms-blanks",
        "max-perms-arabic-indic", "max-flags-underscore",
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
        ("analyze", "--preset", "paw", "--max-flags", "-1"),
        ("export", "--preset", "paw", "--what", "cayley", "--max-perms", "-5"),
    ],
)
def test_negative_caps_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--preset", "path:5", "--max-perms", "719"), "6! = 720 permutations exceeds the cap of 719"),
        (("--preset", "path:7", "--max-perms", "5040"), "8! = 40320 permutations exceeds the cap of 5040"),
        (("--preset", "path:6", "--corrupt", "drop-face"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,3-4,5-6,6-7"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--preset", "path:6"), "7! = 5040 permutations exceeds the cap of 720"),
        (("--edges", "1-2,1-3,1-4,2-3,2-4,3-4,5-6"), "the graphicahedron is only defined for connected graphs"),
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


def test_verify_at_p6_reports_a_dropped_face(capsys):
    code, report, _ = run_json(capsys, "verify", "--preset", "path:5", "--corrupt", "drop-face")
    assert code == 4
    assert report["axioms"]["diamond"] == "fail"
    assert report["axioms"]["witness"] == (
        "1 faces between K{1,2,3}:a(1,2,3,4,5,6) and K{1,2,3,4,5}:a(1,2,3,4,5,6), expected 2"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--preset", "path:5"), "86400 flags exceed the cap of 5000"),
        (("--preset", "cycle:5"), "14400 flags exceed the cap of 5000"),
        (("--preset", "cycle:4", "--max-flags", "100"), "576 flags exceed the cap of 100"),
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


def test_flag_count_past_the_int_digit_limit_is_named_not_printed(capsys):
    # the complete graph on 60 vertices has 60! <= 10**82 permutations and 1770! flag orders
    edges = ",".join(f"{i}-{j}" for i in range(1, 61) for j in range(i + 1, 61))
    code, out, err = run(capsys, "analyze", "--edges", edges, "--max-perms", str(10**82))
    assert code == 3
    assert err == "error: 60! * 1770! flags exceed the cap of 5000\n"


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

    monkeypatch.setattr(cli.polytope, "build", boom)
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


@pytest.mark.parametrize(
    "payload",
    [
        {"faces_per_rank": [6], "edges": []},
        {"faces_per_rank": [24, 36], "edges": [[0, 1, 1], [0, 5, 3], [22, 23, 2]]},
        {"nodes": ["1,2", "2,1"], "edges": [[0, 1, 1]]},
    ],
)
def test_json_writer_matches_the_indenting_encoder(capsys, payload):
    from graphicahedron.cli import _write_json_lists

    _write_json_lists(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


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
    ("verify --preset paw --corrupt drop-face", 4,
     "250dd6dd3ed33df79eae342461078970f7bb7f30aa021cb6182291b57b09229c"),
    ("verify --preset paw --corrupt drop-adjacency", 4,
     "69bfd156d62ef2caa658e198ccf8321036d30be7eef01259fcf14a020f07b6da"),
    ("verify --preset fork", 0,
     "a91fbf29020e3414139b76f0019036c57f5088148029bd130835f4874404e9d5"),
    ("verify --preset fork --corrupt drop-face", 4,
     "b3603c76658e1f8e26178784698b06503650980c9ac2272ee52f87657d3704e7"),
    ("verify --preset fork --corrupt drop-adjacency", 4,
     "83fc5604a2a37447cdc522744e60b6b356f775c57498dd136db7c8aac77a8b5f"),
    ("verify --preset path:4", 0,
     "85a6a4e3d9405a1be95a90bb688ef139d4bf813183d8959348259d326d0a190a"),
    ("verify --preset path:4 --corrupt drop-face", 4,
     "5599c5480887c5b4e94c9421092909cd3a7d5f024db8d7621040c818899657ec"),
    ("verify --preset path:4 --corrupt drop-adjacency", 4,
     "659db1e11ff7de5c936f2a3a61917b61ccc14d5b21a79f303d01eed2e148464d"),
    ("verify --preset star:4", 0,
     "6fa61fd65a39ae5dbf5006d1ec537881e370a04bfa967becb760dccd8cd9b896"),
    ("verify --preset star:4 --corrupt drop-face", 4,
     "47338f3586e89a0b55e45d43d9176624f1e2ae734ed1319825ce3327e6730c01"),
    ("verify --preset star:4 --corrupt drop-adjacency", 4,
     "5770465f89eb34b540f1cfebd05e5dcb04eec2fdec3853f0325b563b663549c5"),
    ("verify --preset cycle:5", 0,
     "68941e1fa3b5ddc81c4ed5577601f77f37a71ffbee53a742f56ab4179f43852e"),
    ("verify --preset cycle:5 --corrupt drop-face", 4,
     "fbf77989f1699f431554c4a124be50bdb9d212553f1daa3bbdf1fc967b91669e"),
    ("verify --preset cycle:5 --corrupt drop-adjacency", 4,
     "8454e8875acdbdda4786a8d383bd135772ac3bfadb46b1e7fbee069cf5875533"),
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


@pytest.mark.parametrize("argv, code, digest", PINNED_RUNS)
def test_cli_stdout_is_pinned(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code in (0, 4):  # a report, whether the axioms pass or fail
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


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
# and arbitrary text.  The trailing --max-perms 24 wins over any earlier
# value, so no run builds a graph on more than 4 vertices.
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
