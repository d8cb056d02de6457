"""CLI wiring smoke checks: the module entry point must keep working."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCliSmoke:
    def test_module_help_exits_zero(self):
        """``python -m repro.experiments --help`` must exit 0."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            env=_module_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "repro-experiments" in proc.stdout
        assert "--manifest" in proc.stdout and "--metrics" in proc.stdout

    def test_missing_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([])
        assert excinfo.value.code == 2

    def test_unknown_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table99"])
        assert excinfo.value.code == 2

    def test_profile_stride_below_one_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli_main(["table1", "--profile", "--profile-stride", "0",
                         "--cache-dir", str(tmp_path / "cache"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: --profile-stride must be >= 1\n"
        assert list(tmp_path.iterdir()) == []
