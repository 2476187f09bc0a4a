"""Golden CLI output: stdout, stderr and exit code of fixed runs, byte for byte.

Inputs live in tests/golden/: every arrangement of the
scripts/betti_examples.py gallery, a few extra arrangements that reach the
deconing, general-position and cap paths, and the README double complex.
The recorded results are in tests/golden/expected.json.  After a deliberate
change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mvbetti.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
GALLERY_SCRIPT = Path(__file__).parent.parent / "scripts" / "betti_examples.py"

GALLERY_COMMANDS = (
    ("check", "--verbose"),
    ("betti", "--json"),
    ("poset",),
    ("poset", "--json"),
    ("oracle",),
    ("e1",),
    ("e2",),
)

EXTRA_INPUTS = {
    # non-essential: its essential part is three generic lines, but the
    # three planes do not meet in 3-space, so it is not in general position
    "nonessential_planes_a_3.arr": "affine 3\n1 0 0 0\n0 1 0 0\n1 1 0 1\n",
    "boolean_pair_a_3.arr": "affine 3\n1 0 0 0\n0 1 0 0\n",
    "readme_square.dc": (
        "dims\n0 0 1\n1 0 1\n0 1 1\n1 1 1\n"
        "dh 0 0\n1\ndh 0 1\n1\ndv 0 0\n1\ndv 1 0\n-1\n"
    ),
    # a staircase whose vertical filtration has a nonzero d2:
    # E2 = {(0,1): 1, (2,0): 1}, E3 empty
    "staircase_d2.dc": (
        "dims\n0 1 1\n1 1 1\n1 0 1\n2 0 1\n"
        "dh 0 1\n1\ndv 1 0\n1\ndh 1 0\n1\n"
    ),
    # that staircase plus its transpose shifted by (1,0), the dv-first zigzag
    # (2,0) -> (2,1) <- (1,1) -> (1,2), sharing the cells (1,1) and (2,0):
    # the vertical filtration has d2 from (0,1) to (2,0), the horizontal one
    # d2 from (2,0) to (1,2)
    "zigzag_pair_d2.dc": (
        "dims\n0 1 1\n1 1 2\n1 0 1\n2 0 2\n2 1 1\n1 2 1\n"
        "dh 0 1\n1\n0\ndv 1 0\n1\n0\ndh 1 0\n1\n0\n"
        "dv 2 0\n0 1\ndh 1 1\n0 1\ndv 1 1\n0 1\n"
    ),
    # one defect each, at (1,0) or (0,1) in a degree of two cells: the error
    # names the identity that fails and its source cell
    "bad_dh_squared.dc": (
        "dims\n0 1 1\n1 0 1\n2 0 1\n3 0 1\n"
        "dh 1 0\n1\ndh 2 0\n1\n"
    ),
    "bad_anticommute.dc": (
        "dims\n0 1 1\n1 0 1\n2 0 1\n1 1 1\n2 1 1\n"
        "dh 1 0\n1\ndh 1 1\n1\ndv 1 0\n1\ndv 2 0\n1\n"
    ),
    "bad_dv_squared.dc": (
        "dims\n0 1 1\n1 0 1\n0 2 1\n0 3 1\n"
        "dv 0 1\n1\ndv 0 2\n1\n"
    ),
}

EXTRA_CASES = (
    ("nonessential_planes_a_3.arr", ("check", "--verbose")),
    ("nonessential_planes_a_3.arr", ("poset",)),
    ("boolean_pair_a_3.arr", ("check", "--verbose")),
    ("projective_simplex_p_2.arr", ("betti", "--json", "--infinity", "0")),
    ("projective_simplex_p_2.arr", ("poset", "--infinity", "0")),
    ("projective_simplex_p_2.arr", ("oracle", "--infinity", "1")),
    ("projective_simplex_p_2.arr", ("betti", "--infinity", "7")),
    ("projective_simplex_p_2.arr", ("oracle", "--infinity", "7")),
    ("boolean_a_3.arr", ("betti", "--infinity", "0")),
    ("boolean_a_3.arr", ("poset", "--infinity", "0")),
    ("boolean_a_3.arr", ("betti", "--cap", "2")),
    ("boolean_a_3.arr", ("poset", "--cap", "2")),
    ("readme_square.dc", ("ss",)),
    ("readme_square.dc", ("ss", "--json")),
    ("staircase_d2.dc", ("ss", "--verbose")),
    ("staircase_d2.dc", ("ss", "--json")),
    ("zigzag_pair_d2.dc", ("ss", "--verbose")),
    ("zigzag_pair_d2.dc", ("ss", "--json")),
    ("bad_dh_squared.dc", ("ss",)),
    ("bad_anticommute.dc", ("ss",)),
    ("bad_dv_squared.dc", ("ss",)),
)


def _gallery() -> dict:
    spec = importlib.util.spec_from_file_location("betti_examples", GALLERY_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GALLERY


def _file_name(gallery_name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", gallery_name.lower()).strip("_") + ".arr"


def _inputs() -> dict:
    files = {_file_name(name): text for name, text in _gallery().items()}
    files.update(EXTRA_INPUTS)
    return files


def _cases() -> list:
    gallery = [
        (_file_name(name), command)
        for name in _gallery()
        for command in GALLERY_COMMANDS
    ]
    return gallery + list(EXTRA_CASES)


def _key(file_name: str, command) -> str:
    return " ".join([command[0], file_name, *command[1:]])


def _run(file_name: str, command) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [command[0], str(GOLDEN / file_name), *command[1:]]
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_inputs_match_gallery():
    for file_name, text in _inputs().items():
        assert (GOLDEN / file_name).read_text(encoding="utf-8") == text, file_name


@pytest.mark.parametrize("file_name,command", _cases(), ids=[_key(f, c) for f, c in _cases()])
def test_golden_output(file_name, command):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert _run(file_name, command) == expected[_key(file_name, command)]


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for file_name, text in _inputs().items():
        (GOLDEN / file_name).write_text(text, encoding="utf-8")
    records = {_key(f, c): _run(f, c) for f, c in _cases()}
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
