"""Every checkout path the CI workflow names must exist.

A CI step that names a test file, benchmark or tool that was renamed or
deleted fails only on the CI host, after the change is merged.  This
check scans ``.github/workflows/ci.yml`` for ``tests/…``,
``benchmarks/…`` and ``tools/…`` paths and fails on any that is not in
the checkout.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: A repository path under one of the checked directories, not part of
#: a longer path or word (``src/repro/tools/x`` is not ``tools/x``).
_PATH = re.compile(r"(?<![\w./-])((?:tests|benchmarks|tools)/[\w./*-]*[\w*])")


def workflow_paths(text):
    """The checked paths ``text`` names, in order, without repeats."""
    return list(dict.fromkeys(_PATH.findall(text)))


def missing_paths(text, root=REPO_ROOT):
    """The paths ``text`` names that match nothing under ``root``."""
    return [path for path in workflow_paths(text)
            if not any(root.glob(path))]


def test_every_workflow_path_exists():
    text = WORKFLOW.read_text(encoding="utf-8")
    paths = workflow_paths(text)
    assert "tests/trace/test_tracefile.py" in paths
    assert "tools/lint_trace_format.py" in paths
    assert missing_paths(text) == []


def test_a_missing_path_is_reported(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_here.py").write_text("")
    text = ("run: pytest tests/test_here.py tests/test_gone.py\n"
            "run: python tools/gone.py --write; ls src/repro/tools/x.py\n")
    assert workflow_paths(text) == [
        "tests/test_here.py", "tests/test_gone.py", "tools/gone.py"]
    assert missing_paths(text, tmp_path) == [
        "tests/test_gone.py", "tools/gone.py"]
