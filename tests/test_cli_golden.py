"""Byte-for-byte output of the command line: stdout, stderr and exit code.

`tests/cli_golden.json` holds the expected output of every command in
CASES.  It pins the CLI surface while the code behind it is restructured.
To write it again, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from adamsops.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FORMATS = ("json", "csv", "pretty")
COMPUTE_GROUPS = (
    ("U", "3"), ("SU", "3"), ("Sp", "2"), ("Sp", "1"),
    ("SpinOdd", "3"), ("SpinEven", "4"), ("G2", None),
)
EIGEN_FLAGS = ((), ("--l", "3"), ("--integral",), ("--l", "3", "--integral"))

CASES = (
    [
        ["compute", "--group", family]
        + (["--rank", rank] if rank else [])
        + ["--l", "3", "--format", fmt]
        for family, rank in COMPUTE_GROUPS
        for fmt in FORMATS
    ]
    + [
        ["compute", "--group", "U", "--rank", "1", "--l", "5", "--format", "json"],
        ["compute", "--group", "SpinOdd", "--rank", "1", "--l", "2", "--format", "json"],
        ["compute", "--group", "SpinEven", "--rank", "3", "--l", "2", "--format", "json"],
        ["compute", "--group", "G2", "--rank", "5", "--l", "2", "--format", "json"],
        ["compute", "--group", "SpinEven", "--rank", "2", "--l", "2"],
        ["compute", "--group", "U", "--rank", "3", "--l", "0"],
        ["compute", "--group", "Sp", "--l", "2"],
    ]
    + [["eigen", "--rank", "4", *flags, "--format", fmt] for flags in EIGEN_FLAGS for fmt in FORMATS]
    + [
        ["eigen", "--rank", "0"],
        ["eigen", "--rank", "257"],
        ["eigen", "--rank", "3", "--l", "300000"],
        ["eigen", "--rank", "3", "--l", "0", "--format", "csv"],
        ["mu", "4", "3", "2", "2"],
        ["mu", "4", "3", "2", "2", "--check"],
        ["mu", "0", "2", "1", "1"],
    ]
    + [
        ["verify", "--suite", suite, "--max-rank", "3", "--max-l", "2"]
        for suite in ("counts", "matrices", "eigen", "oracle", "all")
    ]
    + [
        ["verify", "--suite", "counts"],
        ["verify", "--suite", "matrices"],
        ["verify", "--suite", "eigen"],
        ["verify", "--suite", "eigen", "--max-rank", "3"],
        ["verify", "--suite", "eigen", "--max-l", "4"],
    ]
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(map(tuple, CASES))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_unchanged(golden, argv):
    assert run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
