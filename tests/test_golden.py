"""Byte-identity of CLI output on fixed inputs.

Each case of ``golden_cases.CASES`` runs one ``latval`` command with
``--out`` and compares the written bytes, and the exit code, with
``tests/golden/expected/<name>.json`` (for malformed input or a refused
transform, the message to stderr with ``<name>.txt``).  The expected files were written
by the same cases, so a refactor that changes any output byte fails here.
To rewrite them after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
import tempfile

import pytest

from golden_cases import CASES, GOLDEN, HOLDS_ON, expected_path, run_case


def test_every_law_has_cases():
    from latval.laws import LAW_IDS
    assert tuple(HOLDS_ON) == LAW_IDS


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, name, argv, code):
    got, written = run_case(argv, code, str(tmp_path / "out.json"))
    assert got == code
    with open(expected_path(name, argv, code), "rb") as fh:
        assert written == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN, "expected"), exist_ok=True)
    for name, argv, code in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got, written = run_case(argv, code, os.path.join(tmp, "out"))
        if got != code or written is None:
            sys.exit(f"{name}: exit code {got}, expected {code}")
        with open(expected_path(name, argv, code), "wb") as fh:
            fh.write(written)
