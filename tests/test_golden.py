"""Byte-identity of CLI output on fixed inputs.

Each case of ``golden_cases.CASES`` runs one ``latval`` command with
``--out`` and compares the written bytes, and the exit code, with
``tests/golden/expected/<name>.json``.  The expected files were written
by the same cases, so a refactor that changes any output byte fails here.
To rewrite them after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from golden_cases import CASES, HOLDS_ON, expected_path
from latval import cli


def test_every_law_has_cases():
    from latval.laws import LAW_IDS
    assert tuple(HOLDS_ON) == LAW_IDS


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, name, argv, code):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == code
    with open(expected_path(name), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(expected_path("")), exist_ok=True)
    for name, argv, code in CASES:
        got = cli.main(argv + ["--out", expected_path(name)])
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")
