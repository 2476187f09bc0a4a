"""Command-line interface: outputs, exit codes, JSON determinism."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvbetti.betti
import mvbetti.cli
import mvbetti.flats
from mvbetti import build_intersection_poset, compute_betti, parse_arrangement, whitney_betti
from mvbetti.arrangement import _affine_chart
from mvbetti.cli import main
from mvbetti.flats import DEFAULT_CAP, IntersectionPoset
from mvbetti.generate import boolean_arrangement_text, difference_arrangement_text
from mvbetti.linalg import rref_entries

from helpers import BRAID_A3, PARALLEL_A2, betti_of_roots

SQUARE_DC = """\
dims
0 0 1
1 0 1
0 1 1
1 1 1
dh 0 0
1
dh 0 1
1
dv 0 0
1
dv 1 0
-1
"""


@pytest.fixture
def boolean3_file(tmp_path):
    path = tmp_path / "boolean3.arr"
    path.write_text(boolean_arrangement_text(3))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_betti_boolean3(boolean3_file, capsys):
    assert main(["betti", boolean3_file]) == 0
    out = capsys.readouterr().out
    assert "betti: 1 3 3 1" in out
    assert "poincare: 1 + 3t + 3t^2 + t^3" in out


def test_check_braid(tmp_path, capsys):
    path = write(tmp_path, "braid.arr", BRAID_A3)
    assert main(["check", path, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "betti: 1 3 2 0" in out
    assert "essential rank: 2  shift: 1" in out
    assert "oracle agreement: yes" in out


def test_zero_normal_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.arr", "affine 2\n1 0 0\n0 0 5\n")
    assert main(["betti", path]) == 1
    assert "line 3" in capsys.readouterr().err


def test_huge_dimension_exit_code(tmp_path, capsys):
    path = write(tmp_path, "huge.arr", "affine 99999999999\n")
    assert main(["betti", path]) == 1
    assert "line 1" in capsys.readouterr().err


def test_nonessential_at_the_dimension_limit(tmp_path, capsys):
    # x1 = 0 and x2 = 3 in affine 1000-space: the complement is (C minus a
    # point)^2 times C^998, so the Poincare polynomial is (1 + t)^2.
    zeros = ["0"] * 998
    lines = ["affine 1000", " ".join(["1", "0", *zeros, "0"]), " ".join(["0", "1", *zeros, "3"])]
    path = write(tmp_path, "wide.arr", "\n".join(lines) + "\n")
    assert main(["betti", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["betti"][:3] == [1, 2, 1] and sum(doc["betti"]) == 4
    assert doc["agreement"] is True


def test_duplicate_exit_code(tmp_path):
    path = write(tmp_path, "dup.arr", "affine 2\n1 0 0\n-1 0 0\n")
    assert main(["betti", path]) == 1


def test_missing_file_exit_code(tmp_path):
    assert main(["betti", str(tmp_path / "nope.arr")]) == 1


def test_non_utf8_input_exit_code(tmp_path, capsys):
    for name, data, command in (
        ("bad.arr", b"affine 1\n1 0\n\xff\n", "betti"),
        ("bad.dc", b"dims\n0 0 1\n\xfe 0 1\n", "ss"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, [command, str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: not UTF-8 text") and err.count("\n") == 1


def test_projective_without_hyperplanes_exit_code(tmp_path, capsys):
    # No hyperplane can go to infinity; the default index r - 1 is never named.
    path = write(tmp_path, "empty.arr", "projective 2\n")
    message = "error: projective input needs a hyperplane to put at infinity\n"
    for command in ("betti", "oracle", "poset"):
        assert run(capsys, [command, path]) == (1, "", message)


def test_cap_exceeded_exit_code(boolean3_file):
    assert main(["betti", boolean3_file, "--cap", "2"]) == 2


def test_infinity_on_affine_rejected(boolean3_file):
    assert main(["betti", boolean3_file, "--infinity", "0"]) == 1


def test_infinity_choice_on_projective(tmp_path, capsys):
    path = write(tmp_path, "tri.arr", "projective 2\n1 0 0\n0 1 0\n1 1 1\n")
    for k in range(3):
        assert main(["betti", path, "--infinity", str(k)]) == 0
        assert "betti: 1 2 1" in capsys.readouterr().out
    assert main(["betti", path]) == 0  # default: last hyperplane at infinity
    assert "betti: 1 2 1" in capsys.readouterr().out


def test_json_schema_and_determinism(boolean3_file, capsys):
    assert main(["betti", boolean3_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["betti", boolean3_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {
        "kind", "n", "r", "essential_rank", "shift", "betti",
        "poincare", "e1", "e2", "oracle", "agreement",
    }
    assert doc["betti"] == [1, 3, 3, 1]
    assert doc["agreement"] is True
    for field in ("n", "r", "essential_rank", "shift"):
        assert isinstance(doc[field], int)
    for p, q, d in doc["e1"] + doc["e2"]:
        assert all(isinstance(x, int) for x in (p, q, d))
    assert doc["oracle"]["mobius"] == doc["betti"]


def test_oracle_subcommand(tmp_path, capsys):
    path = write(tmp_path, "parallel.arr", PARALLEL_A2)
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "mobius:  1 2 0" in out
    assert "whitney: 1 2 0" in out


def test_poset_subcommand(boolean3_file, capsys):
    assert main(["poset", boolean3_file]) == 0
    out = capsys.readouterr().out
    assert "8 flats" in out
    assert "mu=+1" in out and "mu=-1" in out
    assert main(["poset", boolean3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["flats"]) == 8
    assert doc["flats"][0]["codim"] == 0


def test_e1_e2_tables(tmp_path, capsys):
    path = write(tmp_path, "braid.arr", BRAID_A3)
    assert main(["e1", path]) == 0
    out = capsys.readouterr().out
    assert "page 1 (n=2, r=3)" in out
    assert main(["e2", path]) == 0
    out = capsys.readouterr().out
    assert "page 2" in out


def test_ss_subcommand(tmp_path, capsys):
    path = write(tmp_path, "square.dc", SQUARE_DC)
    assert main(["ss", path]) == 0
    out = capsys.readouterr().out
    assert "total cohomology: 0" in out
    assert out.count("converges: yes") == 2
    assert main(["ss", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converges"] is True
    assert set(doc["filtrations"]) == {"horizontal", "vertical"}


def test_ss_far_apart_positions(tmp_path, capsys):
    # Two cells 2000 columns apart and no differentials: every page is the
    # same, so both filtrations are stable from r = 0 and r_max = 2002.
    path = write(tmp_path, "far.dc", "dims\n0 0 1\n2000 0 1\n")
    assert main(["ss", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r_max"] == 2002
    assert doc["total_cohomology"] == {"0": 1, "2000": 1}
    for name in ("horizontal", "vertical"):
        assert doc["filtrations"][name]["stable_at"] == 0
        assert len(doc["filtrations"][name]["pages"]) == 2003


def test_ss_text_independent_of_the_spread(tmp_path, capsys):
    # Cells 10^9 columns apart: r_max = 10^9 + 2, but text mode prints pages
    # 1, 2 and the limit, and no page is stored per r, so this is immediate.
    path = write(tmp_path, "wide.dc", "dims\n0 0 1\n1000000000 0 1\n")
    page = "     q\\p           0  1000000000\n       0           1           1\n"
    pages = "".join(f"  {name}:\n{page}" for name in ("E_1", "E_2", "E_inf"))
    expected = "total cohomology: H^0=1 H^1000000000=1\n" + "".join(
        f"filtration {name}: stable at r=0, converges: yes\n{pages}"
        for name in ("horizontal", "vertical")
    )
    assert run(capsys, ["ss", path]) == (0, expected, "")


def test_ss_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.dc", "dims\n0 0 1\n1 0 1\ndh 0 0\n")
    assert main(["ss", path]) == 1
    path = write(tmp_path, "dup.dc", "dims\n0 0 1\n0 0 2\n")
    assert main(["ss", path]) == 1
    assert "line 3: duplicate dims entry" in capsys.readouterr().err
    path = write(tmp_path, "huge.dc", "dims\n0 0 100000\n1 0 100000\n")
    assert main(["ss", path]) == 1
    assert "line 2" in capsys.readouterr().err


def test_poset_on_projective_decones(tmp_path, capsys):
    path = write(tmp_path, "tri.arr", "projective 2\n1 0 0\n0 1 0\n1 1 1\n")
    assert main(["poset", path]) == 0
    assert "4 flats" in capsys.readouterr().out  # two affine lines plus ambient and point
    assert main(["oracle", path]) == 0
    assert "mobius:  1 2 1" in capsys.readouterr().out


def test_cap_must_be_positive(boolean3_file, capsys):
    assert main(["betti", boolean3_file, "--cap", "0"]) == 1
    assert "--cap bounds the hyperplanes given to count_flats" in capsys.readouterr().err


def test_no_oracle_flag(boolean3_file, capsys):
    assert main(["betti", boolean3_file, "--no-oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle" not in out


def run(capsys, argv):
    """Exit code, stdout and stderr of one in-process `main` call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_to_exit(capsys, argv):
    """Like `run`, for a call that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# Three lines through one point plus a fourth line: the affine chart at
# infinity 0 has a parallel pair, the default chart (last hyperplane at
# infinity) is central, so the two give different first pages.
PENCIL_P2 = "projective 2\n1 0 0\n0 1 0\n1 1 0\n0 0 1\n"


def test_calls_share_no_state(boolean3_file, tmp_path, capsys):
    projective = write(tmp_path, "pencil.arr", PENCIL_P2)
    square = write(tmp_path, "square.dc", SQUARE_DC)
    sequence = [
        ["betti", boolean3_file, "--cap", "2"],
        ["betti", boolean3_file],
        ["betti", boolean3_file, "--json"],
        ["betti", boolean3_file],
        ["betti", projective, "--json", "--infinity", "0"],
        ["betti", projective, "--json"],
        ["ss", square],
        ["betti", boolean3_file, "--cap", "2"],
        ["betti", projective, "--json", "--infinity", "0"],
        ["betti", boolean3_file, "--json"],
        ["betti", projective, "--json"],
        ["ss", square],
        ["betti", boolean3_file],
    ]
    first = {}
    for argv in sequence:
        result = run(capsys, argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    assert first[("betti", boolean3_file, "--cap", "2")][0] == 2
    plain = first[("betti", boolean3_file)]
    assert plain[0] == 0 and plain[1].startswith("betti: 1 3 3 1\n")
    assert json.loads(first[("betti", boolean3_file, "--json")][1])["betti"] == [1, 3, 3, 1]
    at_zero = first[("betti", projective, "--json", "--infinity", "0")]
    default = first[("betti", projective, "--json")]
    assert at_zero[0] == default[0] == 0
    assert json.loads(at_zero[1])["e1"] != json.loads(default[1])["e1"]
    assert first[("ss", square)][0] == 0

    for argv in ([], ["betti"], ["betti", boolean3_file, "--cap", "x"]):
        code, _, err = run_to_exit(capsys, argv)
        assert code == 2 and "usage: mvbetti" in err, argv
    assert run(capsys, ["betti", boolean3_file]) == plain
    assert run(capsys, ["ss", square]) == first[("ss", square)]


def test_help_follows_terminal_width(monkeypatch, capsys):
    def help_text(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, _ = run_to_exit(capsys, ["betti", "--help"])
        assert code == 0
        return out

    narrow = help_text(60)
    wide = help_text(140)
    assert max(map(len, narrow.splitlines())) <= 60
    assert max(map(len, wide.splitlines())) > 60
    assert len(wide.splitlines()) < len(narrow.splitlines())
    assert help_text(60) == narrow


@pytest.mark.parametrize("module", ["mvbetti", "mvbetti.cli"])
@pytest.mark.parametrize(
    "file_name,command",
    [("boolean_a_3.arr", ("betti", "--json")), ("braid_a_3.arr", ("check", "--verbose"))],
)
def test_process_entry_points(module, file_name, command):
    root = Path(__file__).parent.parent
    golden = root / "tests" / "golden"
    expected = json.loads((golden / "expected.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [command[0], str(golden / file_name), *command[1:]]
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    record = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    assert record == expected[" ".join([command[0], file_name, *command[1:]])]


def huge(rng):
    return rng.choice((-1, 1)) * rng.randrange(10**50, 10**51)


def test_huge_coefficients_general_position(tmp_path, capsys):
    rng = Random(50)
    n, r = 3, 6
    lines = [" ".join(str(huge(rng)) for _ in range(n + 1)) for _ in range(r)]
    path = write(tmp_path, "huge.arr", f"affine {n}\n" + "\n".join(lines) + "\n")
    assert main(["betti", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["betti"] == [comb(r, k) for k in range(n + 1)]


def test_huge_coefficients_parallel_pair(tmp_path, capsys):
    rng = Random(51)
    a, b = huge(rng), huge(rng)
    text = (
        f"affine 2\n{a} {b} {huge(rng)}\n{a} {b} {huge(rng)}\n"
        f"{huge(rng)} {huge(rng)} {huge(rng)}\n"
    )
    path = write(tmp_path, "parallel.arr", text)
    assert main(["betti", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["betti"] == [1, 3, 2]
    # two of the three pairs meet in a point; the parallel pair is empty
    assert [-1, 1, 2] in doc["e1"]


def braid_file(tmp_path, m: int) -> str:
    """The braid arrangement x_i = x_j (i < j) on m coordinates, written to a file."""
    return write(tmp_path, f"braid{m}.arr", difference_arrangement_text(m, (-1,), (0,)))


def braid_betti(m: int) -> list:
    """The coefficients of prod_{j<m} (1 + j t), then b_m = 0."""
    return betti_of_roots(range(m))


def braid_poincare(tmp_path, capsys, m: int) -> tuple:
    """`betti --json` on the braid arrangement on m coordinates, and prod_{j<m} (1 + j t)."""
    path = braid_file(tmp_path, m)
    assert main(["betti", path, "--no-oracle", "--cap", "64", "--json"]) == 0
    return json.loads(capsys.readouterr().out)["betti"], braid_betti(m)


def test_check_braid_seven_coordinates_with_oracles(tmp_path, capsys):
    # r = 21 at the default cap: both oracles run and agree with
    # prod_{j<7} (1 + j t).
    code, out, err = run(capsys, ["check", braid_file(tmp_path, 7)])
    assert (code, err) == (0, "")
    assert "betti: " + " ".join(map(str, braid_betti(7))) in out
    assert "poincare: 1 + 21t + 175t^2 + 735t^3 + 1624t^4 + 1764t^5 + 720t^6" in out
    assert "oracle agreement: yes" in out


@pytest.mark.parametrize(
    "m, constants, roots",
    [
        # Catalan, r = 18: chi(q) = q prod_{k=1..m-1} (q - m - k)
        (4, (-1, 0, 1), (0, 5, 6, 7)),
        # Shi, r = 20: chi(q) = q (q - m)^(m - 1)
        (5, (0, 1), (0, 5, 5, 5, 5)),
    ],
    ids=["catalan4", "shi5"],
)
def test_check_catalan_and_shi_with_oracles(tmp_path, capsys, m, constants, roots):
    # Both under the default cap, so `check` runs the pipeline and both oracles.
    path = write(tmp_path, "difference.arr", difference_arrangement_text(m, (-1,), constants))
    code, out, err = run(capsys, ["check", path, "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    expected = betti_of_roots(roots)
    assert doc["betti"] == expected
    assert doc["oracle"] == {"mobius": expected, "whitney": expected}
    assert doc["agreement"] is True


def poset_with_one_sign_flipped(arr, cap=DEFAULT_CAP):
    """The intersection poset with the first Moebius value after the ambient one negated."""
    poset = build_intersection_poset(arr, cap)
    ambient, (flat, mask, mu), *rest = poset.sweep
    return IntersectionPoset(poset.ambient_dim, (ambient, (flat, mask, -mu), *rest))


def test_oracles_catch_a_mobius_sign_defect(boolean3_file, capsys, monkeypatch):
    # |mu| hides the flipped sign from the Moebius sum, not from Whitney's signed sum.
    for module in (mvbetti.cli, mvbetti.betti):
        monkeypatch.setattr(module, "build_intersection_poset", poset_with_one_sign_flipped)
    expected = "mobius:  1 3 3 1\nwhitney: 1 1 3 1\n"
    assert run(capsys, ["oracle", boolean3_file]) == (3, expected, "")
    for command in ("betti", "check"):
        code, out, err = run(capsys, [command, boolean3_file])
        assert code == 3
        assert "oracle agreement: NO\n  mobius:  1 3 3 1\n  whitney: 1 1 3 1\n" in out
        assert err == (
            "inconsistency: pipeline (1, 3, 3, 1) disagrees with oracles "
            "(mobius (1, 3, 3, 1), whitney (1, 1, 3, 1))\n"
        )


def test_oracles_share_one_sweep(tmp_path, capsys, monkeypatch):
    # Both oracle vectors are read off one intersection-poset sweep, so the
    # pipeline and `oracle` extend flats exactly as often as that sweep.
    calls = []
    extend = mvbetti.flats._extend
    monkeypatch.setattr(
        mvbetti.flats, "_extend", lambda flat, row: calls.append(row) or extend(flat, row)
    )

    def extensions(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    for text in (difference_arrangement_text(4, (-1,), (-1, 0, 1)), BRAID_A3, PENCIL_P2):
        arr = parse_arrangement(text)
        affine = _affine_chart(arr, None)
        sweep = extensions(build_intersection_poset, affine)
        assert sweep >= affine.r
        assert extensions(compute_betti, arr) == sweep
        assert extensions(main, ["oracle", write(tmp_path, "input.arr", text)]) == sweep
        assert extensions(whitney_betti, build_intersection_poset(affine)) == 0
    capsys.readouterr()


def test_betti_path_does_not_sort_the_poset(tmp_path, capsys, monkeypatch):
    # The sort key of the `poset` printout is the only `rref_entries` call
    # the Betti numbers could reach; `poset` output must still be sorted.
    def refuse(rows, pivots):
        raise AssertionError("rref_entries called")

    monkeypatch.setattr(mvbetti.cli, "rref_entries", refuse)
    path = braid_file(tmp_path, 4)
    assert compute_betti(parse_arrangement(BRAID_A3), oracles=True).agreement is True
    assert run(capsys, ["oracle", path]) == (0, "mobius:  1 6 11 6 0\nwhitney: 1 6 11 6 0\n", "")
    assert run(capsys, ["check", path])[0] == 0
    with pytest.raises(AssertionError, match="rref_entries called"):
        main(["poset", path])

    calls = []
    monkeypatch.setattr(
        mvbetti.cli, "rref_entries", lambda rows, pivots: calls.append(rows) or rref_entries(rows, pivots)
    )
    code, out, _ = run(capsys, ["poset", path])
    flats = len(build_intersection_poset(parse_arrangement(Path(path).read_text())).sweep)
    assert code == 0 and out.startswith(f"{flats} flats:")
    # One sort key per flat, reused for its equations.
    assert len(calls) == len(set(calls)) == flats


def test_braid_closed_form(tmp_path, capsys):
    # Braid arrangement on 8 coordinates (r=28): Poincare polynomial
    # prod_{j<8} (1 + j t) = 1 + 28t + 322t^2 + 1960t^3 + 6769t^4 + 13132t^5
    # + 13068t^6 + 5040t^7 (Arnold 1969; Orlik-Terao ch. 2).
    betti, expected = braid_poincare(tmp_path, capsys, 8)
    assert expected == [1, 28, 322, 1960, 6769, 13132, 13068, 5040, 0]
    assert betti == expected


def test_braid_closed_form_ten_coordinates(tmp_path, capsys):
    # r = 45: past what a walk over subsets can finish, since the restricted
    # arrangements repeat and each is counted once.
    betti, expected = braid_poincare(tmp_path, capsys, 10)
    assert expected[-2] == 362880  # 9!
    assert betti == expected


BAD_RATIONALS = ("1/0", "x", "1/", "/2", "2/-3", "1.5.2", "--1", "nan")
fields = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(BAD_RATIONALS))
positions = st.integers(-50, 50)


@st.composite
def malformed_files(draw):
    """Arrangement or double-complex text, then truncated, repeated and corrupted.

    Hyperplane lines get n to n + 2 fields and matrix rows 0 to 3, so field
    counts are often wrong; `dims` stay small.  Positions range over
    -50..50, so `ss` often runs a hundred pages.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("affine", "projective")))
        lines = [draw(st.sampled_from((f"{kind} {n}", f"{kind} {n} 1", f"{kind} x", f"{kind} 0")))]
        for _ in range(draw(st.integers(0, 5))):
            lines.append(" ".join(draw(st.lists(fields, min_size=n, max_size=n + 2))))
    else:
        lines = ["dims"]
        for p, q, d in draw(st.lists(st.tuples(positions, positions, st.integers(0, 2)), max_size=4)):
            lines.append(f"{p} {q} {d}")
        for _ in range(draw(st.integers(0, 3))):
            block = draw(st.sampled_from(("dh", "dv")))
            lines.append(f"{block} {draw(positions)} {draw(positions)}")
            for _ in range(draw(st.integers(0, 2))):
                lines.append(" ".join(draw(st.lists(fields, max_size=3))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("truncate", "repeat", "corrupt")))
        if action == "truncate":
            lines = lines[: i + 1]
        elif action == "repeat":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(BAD_RATIONALS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(malformed_files())
@example("dims\n0 0 100000\n1 0 100000\n")
@example("dims\n0 0 1_0\n")
@settings(max_examples=60, deadline=None)
def test_malformed_input_never_escapes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(text)
    for subcommand in ("ss", "betti"):
        assert main([subcommand, str(path)]) in (0, 1, 2, 3)
