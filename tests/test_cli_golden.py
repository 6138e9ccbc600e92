"""Byte-for-byte replay of recorded CLI runs.

``data/cli_golden.json`` holds one entry per invocation: the argv, an
optional environment, the exit code and the exact stdout and stderr.  It
covers every subcommand and sub-action in text and JSON output plus the
error exits.  ``{tmp}`` stands for a temporary directory, in the argv and in
the recorded output alike.
"""

import json
import pathlib

import pytest

from twinkit.cli import MAX_RADIUS_ENV, main

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "<empty>")
def test_cli_golden(case, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(MAX_RADIUS_ENV, raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    tmp = str(tmp_path)
    code = main([arg.replace("{tmp}", tmp) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out.replace(tmp, "{tmp}") == case["stdout"]
    assert captured.err.replace(tmp, "{tmp}") == case["stderr"]
