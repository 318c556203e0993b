"""The CLI runs from a copy of the package alone.

Everything the registered scenarios need lives under ``src/repro``, so
a bare copy of the package, run away from the checkout, serves them
with the same answers.  ``-S`` keeps an installed or editable ``repro``
from shadowing the copy; the package has no runtime dependencies.
"""

import os
import pathlib
import shutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GRID = ["grid", "alternating_bit", "--seeds", "2", "--workers", "1"]


def run_cli(args, cwd, pythonpath):
    env = {**os.environ, "PYTHONPATH": str(pythonpath)}
    return subprocess.run(
        [sys.executable, "-S", "-m", "repro", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def report_digest(stdout: str) -> list:
    return [line for line in stdout.splitlines()
            if line.startswith("report digest")]


def test_cli_runs_from_package_copy(tmp_path):
    shutil.copytree(SRC / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    in_tree_cwd = tmp_path / "in-tree"
    in_tree_cwd.mkdir()

    copied = run_cli(GRID, tmp_path, tmp_path)
    assert copied.returncode == 0, copied.stderr
    in_tree = run_cli(GRID, in_tree_cwd, SRC)
    assert in_tree.returncode == 0, in_tree.stderr
    assert report_digest(copied.stdout)
    assert report_digest(copied.stdout) == report_digest(in_tree.stdout)

    out = tmp_path / "abp.json"
    traced = run_cli(["trace", "-o", str(out)], tmp_path, tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert out.stat().st_size > 0
