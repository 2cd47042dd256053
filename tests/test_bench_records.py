"""One record per benchmark script: committed and gated, or deleted.

Every ``benchmarks/bench_<name>.py`` must have its result committed as
``results/BENCH_<name>.json`` and be run by a step of the CI workflow,
which gates it.  A script with neither is a second, unkept record beside
``e2ebench/`` and ``repro sample validate``; delete it instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("bench_*.py"))
CI_LINES = [
    line.strip()
    for line in (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
]


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_result_is_committed(script):
    name = script.stem[len("bench_"):]
    assert (ROOT / "results" / f"BENCH_{name}.json").is_file()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_ci_runs_script(script):
    path = f"benchmarks/{script.name}"
    assert any(
        path in line and not line.startswith("#") for line in CI_LINES
    ), f"no CI step runs {path}"
