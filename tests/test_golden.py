"""Byte stability: the sha256 of the CLI's standard output on four fixed runs.

A change to any of these digests is a change to the canonical
representatives or to the table output, and ships only as a declared format
change with new digests.
"""

import hashlib
import io

import pytest

from gcanon.cli import main


def cli_stdout(argv, stdin_text=""):
    out = io.StringIO()
    assert main(argv, stdin=io.StringIO(stdin_text), stdout=out) == 0
    return out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["gen", "8"], "631a5603ad058afeec76d797a5d79453e1664e12917345de4a3b78ce223ce27f"),
        (["gen", "7", "--connected"], "e1264cc49880e22a9ff532d25914ea2f116d4c12d1c527ab141d1ff93340374e"),
        (
            ["repro", "er-connectivity", "--max-n", "30", "--trials", "100", "--seed", "1"],
            "633c100855919e4b9de71f4e2bc4d2cc6e6de05a84cce780a5be36a768fea3bf",
        ),
    ],
)
def test_golden_stdout(argv, digest):
    assert sha256(cli_stdout(argv)) == digest


def test_golden_random_sample_labelled():
    sample = cli_stdout(["rand", "30", "2000", "0.2", "--seed", "1"])
    labelled = cli_stdout(["label"], sample)
    assert sha256(labelled) == "fe439da7bc4721e6c6f07b3cab1710765943c0109f394364fb854ef1b80acdc0"
