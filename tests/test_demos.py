"""Each narrative script in ``demos/`` runs to completion, and the axiom,
census and permutahedron demos print exactly their recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo: Path) -> str:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, check=True, timeout=120)
    return result.stdout.decode()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_0(demo):
    run_demo(demo)


@pytest.mark.parametrize("name", ["02_polytope_axioms", "04_facet_census", "05_permutahedron"])
def test_demo_output_is_pinned(name):
    expected = (ROOT / "tests" / "demo_output" / f"{name}.txt").read_text()
    assert run_demo(ROOT / "demos" / f"{name}.py") == expected
