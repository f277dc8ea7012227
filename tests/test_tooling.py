"""The documented CLI examples and the test configuration itself."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

from polyseq.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _readme_cli_lines():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("polyseq ")]


def test_readme_cli_examples_run_and_match_the_documented_report():
    lines = _readme_cli_lines()
    assert len(lines) == 5
    outputs = {}
    for line in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(shlex.split(line)[1:])
        assert code == 0, line
        outputs[line] = out.getvalue()
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    documented = json.loads(re.search(r'"witnesses": (\[.*\])', snippet, re.S).group(1))
    kummer = next(line for line in lines if "KUMMER_COSE" in line)
    report = json.loads(outputs[kummer])
    assert report["identity"] == "KUMMER_COSE" and report["verdict"] == "pass"
    assert report["witnesses"] == documented


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis imports libcst to print a failing example; the repo's
    # filterwarnings must not turn libcst's deprecation warning into an abort
    test_file = tmp_path / "test_planted.py"
    test_file.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_planted(x):
                assert x < 0
            """
        )
    )
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTEST_")}
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "FAILED" in output and "INTERNALERROR" not in output, output


def test_importing_polyseq_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter; modules loaded before the import (by a site hook, say) do not count
    code = (
        "import sys; before = set(sys.modules); import polyseq, polyseq.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert {"polyseq", "polyseq.cli", "polyseq.congruences"} <= added
    assert not added & {"dataclasses", "inspect"}
