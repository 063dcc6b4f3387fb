import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    conjugate,
    rand_jordan_type,
    rand_nilpotent,
    rand_rational_spectrum,
    rand_traceless,
    rand_unimodular,
    time_bound,
)
from lieorbits import cli, linalg
from lieorbits.cli import _parse_torus, main
from lieorbits.sln import SlnElement
from lieorbits.ssorbits import GaussianRational


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def one_json_line(out):
    lines = out.splitlines()
    assert len(lines) == 1
    d = json.loads(lines[0])
    assert set(d) == {"error", "hint"}
    return d


def write_matrix(tmp_path, name, n, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "entries": entries}))
    return str(path)


@pytest.fixture
def h2(tmp_path):
    return write_matrix(tmp_path, "h2.json", 2, [["1", "0"], ["0", "-1"]])


@pytest.fixture
def x2(tmp_path):
    return write_matrix(tmp_path, "x2.json", 2, [["0", "1"], ["0", "0"]])


def test_roots(capsys):
    code, out = run(capsys, ["roots", "--type", "G", "--rank", "2", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["type"] == "G" and len(d["roots"]) == 12
    assert d["cartan"] == [[2, -1], [-3, 2]]


def test_maxroot(capsys):
    code, out = run(capsys, ["maxroot", "--type", "A", "--rank", "3"])
    assert code == 0 and json.loads(out)["theta"] == [1, 1, 1]


def test_parabolic(capsys):
    code, out = run(capsys, ["parabolic", "--type", "A", "--rank", "2", "--subset", "1"])
    d = json.loads(out)
    assert code == 0 and (d["dim_l"], d["dim_u"], d["dim_p"]) == (4, 2, 6)
    code, out = run(capsys, ["parabolic", "--type", "A", "--rank", "2"])
    assert json.loads(out)["dim_u"] == 3  # Borel


def test_parabolic_subset_out_of_range(capsys):
    for bad in ("9", "1,0"):
        code, out = run(capsys, ["parabolic", "--type", "A", "--rank", "3", "--subset", bad])
        assert code == 1
        error = one_json_line(out)["error"]
        assert f"index {bad[-1]}" in error and "1..3" in error


def test_parabolic_subset_repeated_index(capsys):
    for bad, index in (("1,1", 1), ("3,1,2,3", 3), ("2,1,1,2", 1)):
        code, out = run(capsys, ["parabolic", "--type", "A", "--rank", "3", "--subset", bad])
        assert code == 2
        d = one_json_line(out)
        assert d["error"] == f"subset {bad!r} repeats index {index}"
        assert d["hint"] == "list each index once"


def test_self_check_failure_exits_3(capsys, monkeypatch, h2):
    def broken_charpoly(a):
        raise RuntimeError("Newton's identity 2 left remainder 1 on an integer matrix")

    monkeypatch.setattr(linalg, "charpoly", broken_charpoly)
    code, out = run(capsys, ["phi", "--matrix", h2])
    assert code == 3
    error = one_json_line(out)["error"]
    assert "broken_charpoly" in error and "left remainder 1" in error


def test_invariant_factor_check_exits_3(capsys, monkeypatch, x2):
    # a characteristic polynomial that disagrees with the Krylov factors
    monkeypatch.setattr(linalg, "_int_charpoly", lambda a: ([1] * (len(a) + 1), []))
    code, out = run(capsys, ["orbit-dim", "--matrix", x2])
    assert code == 3
    error = one_json_line(out)["error"]
    assert "linalg.invariant_factors" in error and "characteristic polynomial" in error


def test_triple_bracket_check_exits_3(capsys, monkeypatch, x2):
    # a chain-basis inverse scaled by 2 doubles h and y, so [h, x] = 4x
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: [[2 * v for v in row] for row in inverse(a)])
    code, out = run(capsys, ["jm", "--matrix", x2])
    assert code == 3
    error = one_json_line(out)["error"]
    assert "lieorbits.triples.jacobson_morozov_sln" in error and "violated the bracket relations" in error


def test_newton_convergence_check_exits_3(capsys, monkeypatch, tmp_path):
    # an inverse of q' that is 0 makes the Newton map the identity, so q(s) never vanishes; the rounds
    # run only for two or more distinct eigenvalues (q = t needs none)
    mixed = write_matrix(tmp_path, "m.json", 3, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]])
    monkeypatch.setattr(linalg, "poly_xgcd", lambda p, q: ([Fraction(1)], [], []))
    code, out = run(capsys, ["jordan", "--matrix", mixed])
    assert code == 3
    error = one_json_line(out)["error"]
    assert "lieorbits.sln.jordan_chevalley" in error and "failed to converge" in error


def test_integer_result_trace_check_exits_3(capsys, monkeypatch, tmp_path):
    # a semisimple part with a nonzero trace is a bug found when the result is built from ints
    mixed = write_matrix(tmp_path, "m.json", 3, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]])
    evaluate = linalg._int_poly_eval_matrix

    def corrupted(*args):
        scale, out = evaluate(*args)
        out[0][0] += 1
        return scale, out

    monkeypatch.setattr(linalg, "_int_poly_eval_matrix", corrupted)
    code, out = run(capsys, ["jordan", "--matrix", mixed])
    assert code == 3
    error = one_json_line(out)["error"]
    assert "lieorbits.sln._from_ints" in error and "nonzero trace" in error


def test_w0(capsys):
    code, out = run(capsys, ["w0", "--type", "A", "--rank", "2"])
    d = json.loads(out)
    assert code == 0 and d["length"] == 3 and len(d["word"]) == 3


def test_killing(capsys, h2, x2):
    code, out = run(capsys, ["killing", "--matrix", h2, "--other", h2])
    assert code == 0 and json.loads(out) == {"value": "8"}
    code, out = run(capsys, ["killing", "--matrix", x2, "--other", x2])
    assert json.loads(out) == {"value": "0"}


def test_jordan_round_trip(capsys, tmp_path):
    mixed = write_matrix(tmp_path, "m.json", 3, [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]])
    code, out = run(capsys, ["jordan", "--matrix", mixed])
    assert code == 0
    d = json.loads(out)
    assert d["semisimple"]["entries"][0] == ["1", "0", "0"]
    # emitted parts are themselves valid inputs
    part = tmp_path / "part.json"
    part.write_text(json.dumps(d["nilpotent"]))
    code, out = run(capsys, ["phi", "--matrix", str(part)])
    assert code == 0 and json.loads(out)["coeffs"] == ["0", "0"]


def test_phi_and_orbit_dim(capsys, h2, x2):
    code, out = run(capsys, ["phi", "--matrix", h2])
    assert code == 0 and json.loads(out) == {"n": 2, "coeffs": ["-1"]}
    code, out = run(capsys, ["orbit-dim", "--matrix", x2])
    assert code == 0 and json.loads(out) == {"n": 2, "orbit_dim": 2, "centralizer_dim": 1}


def test_same_orbit(capsys, tmp_path, h2):
    other = write_matrix(tmp_path, "hswap.json", 2, [["-1", "0"], ["0", "1"]])
    code, out = run(capsys, ["same-orbit", "--matrix", h2, "--other", other])
    assert code == 0 and json.loads(out) == {"same_orbit": True}
    irr = write_matrix(tmp_path, "irr.json", 2, [["0", "2"], ["1", "0"]])
    code, out = run(capsys, ["same-orbit", "--matrix", irr, "--other", h2])
    assert code == 1
    assert one_json_line(out)["hint"] == "conjugacy testing supports rational eigenvalues only"


def test_same_orbit_with_huge_eigenvalues_is_bounded(capsys, tmp_path):
    # t^2 - 10^24: a divisor scan up to sqrt(10^24) would take 10^12 steps
    big = write_matrix(tmp_path, "big.json", 2, [["1000000000000", "0"], ["0", "-1000000000000"]])
    swap = write_matrix(tmp_path, "swap.json", 2, [["-1000000000000", "0"], ["0", "1000000000000"]])

    with time_bound(1.0, "same-orbit"):
        code, out = run(capsys, ["same-orbit", "--matrix", big, "--other", swap])
    assert code == 0 and json.loads(out) == {"same_orbit": True}


def test_triple(capsys):
    code, out = run(capsys, ["triple", "--type", "A", "--rank", "3"])
    d = json.loads(out)
    assert code == 0
    assert d == {
        "type": "A",
        "rank": 3,
        "h_coroot_coords": ["3", "4", "3"],
        "c": ["3", "4", "3"],
        "verified": True,
    }


def test_jm(capsys, tmp_path, x2, h2):
    code, out = run(capsys, ["jm", "--matrix", x2])
    assert code == 0
    d = json.loads(out)
    assert d["x"]["entries"] == [["0", "1"], ["0", "0"]]
    assert d["h"]["entries"] == [["1", "0"], ["0", "-1"]]
    # round trip: the emitted h is a valid matrix input
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(d["h"]))
    code, out = run(capsys, ["killing", "--matrix", str(hpath), "--other", str(hpath)])
    assert json.loads(out) == {"value": "8"}
    zero = write_matrix(tmp_path, "z.json", 2, [["0", "0"], ["0", "0"]])
    code, out = run(capsys, ["jm", "--matrix", zero])
    d = json.loads(out)
    assert code == 0 and d["h"]["entries"] == [["0", "0"], ["0", "0"]]
    code, out = run(capsys, ["jm", "--matrix", h2])
    assert code == 1 and json.loads(out)["error"] == "input must be nilpotent"


def test_poset(capsys):
    code, out = run(capsys, ["poset", "--n", "6", "--json"])
    d = json.loads(out)
    assert code == 0 and len(d["nodes"]) == 11
    assert d["nodes"][0] == {"parts": [6], "dim": 30}
    code, out = run(capsys, ["poset", "--n", "6", "--dot"])
    assert code == 0 and out.startswith("digraph") and "3+1+1+1 (dim 18)" in out


def test_closure(capsys):
    code, out = run(capsys, ["closure", "--n", "6", "--lower", "2,2,2", "--upper", "3,1,1,1"])
    assert code == 0
    assert json.loads(out) == {
        "n": 6,
        "lower": [2, 2, 2],
        "upper": [3, 1, 1, 1],
        "dominance": False,
        "rank_oracle": False,
    }
    code, out = run(capsys, ["closure", "--n", "6", "--lower", "2,2,1,1", "--upper", "3,1,1,1"])
    d = json.loads(out)
    assert d["dominance"] is True and d["rank_oracle"] is True


def test_closure_n_mismatch(capsys):
    code, out = run(capsys, ["closure", "--n", "7", "--lower", "2,2,2", "--upper", "3,1,1,1"])
    assert code == 2
    assert "--n 7" in one_json_line(out)["error"]
    code, out = run(capsys, ["closure", "--n", "6", "--lower", "2,2,2", "--upper", "3,1,1,1,1"])
    assert code == 2
    assert "--upper to 7" in one_json_line(out)["error"]


def test_ssorbit(capsys):
    code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", "1,1"])
    assert code == 0
    d = json.loads(out)
    assert d == {"in_D": True, "Pi_h": [], "orbit_dim": 6, "regular": True, "dims": [6, 3, 3]}
    code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", "1,0"])
    assert json.loads(out) == {"in_D": False, "Pi_h": []}
    code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", "1+1/2 i,2"])
    assert code == 0 and json.loads(out)["in_D"] is True
    for h in ("+1,007", "i,-i", "2/4+3 i,-1/2-i", "1 + 1/2 i,2"):
        code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", h])
        assert code == 0 and set(json.loads(out)) >= {"in_D", "Pi_h"}, h
    for h in (
        "1,whoops",
        "1/0,0",  # the torus of the cli_calls usage.bad_torus op
        "1e10000000,0",  # Fraction would build an exact 10^(10^7)
        "0,1+1e10000000 i",
        "1/0 i,0",
        "1.5,0",
        "1_0,0",
        "0x1,0",
        "1/-2,0",
        "1+-2 i,0",
        "\u0663,0",  # a non-ASCII digit
    ):
        code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", h])
        assert code == 2 and one_json_line(out)["error"].startswith("cannot parse --h"), h


def test_poincare(capsys):
    code, out = run(capsys, ["poincare", "--type", "E", "--rank", "8"])
    d = json.loads(out)
    assert code == 0 and sum(d["dims"]) == 248
    code, out = run(capsys, ["poincare", "--type", "A", "--rank", "1", "--latex"])
    assert code == 0 and out == "(1+t^{3})\n"


def test_minorbit(capsys):
    code, out = run(capsys, ["minorbit", "--type", "D", "--rank", "4"])
    d = json.loads(out)
    assert code == 0 and d["pi_theta"] == [1, 3, 4] and d["dim_Omin"] == 10


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, ["maxroot", "--type", "A", "--rank", "1", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["theta"] == [1]


def test_usage_errors(capsys):
    code, out = run(capsys, ["poset"])
    assert code == 2 and "error" in json.loads(out)
    code, out = run(capsys, ["nonsense"])
    assert code == 2
    code, out = run(capsys, ["jm", "--matrix", "/definitely/not/here.json"])
    assert code == 2


def test_domain_errors(capsys):
    code, out = run(capsys, ["roots", "--type", "E", "--rank", "9"])
    assert code == 1
    d = json.loads(out)
    assert "rank" in d["error"] and "hint" in d


def test_malformed_matrix_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, out = run(capsys, ["phi", "--matrix", str(bad)])
    assert code == 2 and "malformed" in json.loads(out)["error"]
    nottrace = tmp_path / "trace.json"
    nottrace.write_text(json.dumps({"n": 2, "entries": [["1", "0"], ["0", "0"]]}))
    code, out = run(capsys, ["phi", "--matrix", str(nottrace)])
    assert code == 2


@pytest.mark.parametrize(
    "matrix, bad",
    [
        ({"n": 2, "entries": [[0.1, 0], [0, -0.1]]}, "0.1"),  # would read as 3602879701896397/36028797018963968
        ({"n": 2, "entries": [[0, True], [0, 0]]}, "true"),
        ({"n": 2, "entries": [["0", "1"], [None, "0"]]}, "null"),
        ({"n": 2.5, "entries": [["0", "1"], ["0", "0"]]}, "2.5"),
        ({"n": True, "entries": [["0"]]}, "true"),
        ({"n": "2", "entries": [["0", "1"], ["0", "0"]]}, '"2"'),
        ({"n": 2, "entries": ["01", "00"]}, "list of rows"),
        ({"n": 2, "entries": [["0", "1/0"], ["0", "0"]]}, '"1/0"'),  # was a ZeroDivisionError traceback
        ({"n": 2, "entries": [["0", "1e10000000"], ["0", "0"]]}, '"1e10000000"'),  # was an exact 10^(10^7)
        ({"n": 2, "entries": [["0", "1.5"], ["0", "0"]]}, '"1.5"'),
        ({"n": 2, "entries": [["0", " 1"], ["0", "0"]]}, '" 1"'),
        ({"n": 2, "entries": [["0", "1_000"], ["0", "0"]]}, '"1_000"'),
        ({"n": 2, "entries": [["0", "1/-2"], ["0", "0"]]}, '"1/-2"'),
        ({"n": 2, "entries": [["0", "+-1"], ["0", "0"]]}, '"+-1"'),
        ({"n": 2, "entries": [["0", ""], ["0", "0"]]}, '""'),
        ({"n": 2, "entries": [["0", "\u0663"], ["0", "0"]]}, '"\\u0663"'),  # a non-ASCII digit
    ],
)
def test_matrix_entries_must_be_exact(capsys, tmp_path, matrix, bad):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out = run(capsys, ["jordan", "--matrix", str(path)])
    assert code == 2
    error = one_json_line(out)["error"]
    assert error.startswith("malformed matrix JSON") and bad in error


def test_matrix_entries_may_be_ints_or_rational_strings(capsys, tmp_path):
    path = write_matrix(tmp_path, "m.json", 2, [[3, "1/2"], ["-7/3", -3]])
    code, out = run(capsys, ["phi", "--matrix", str(path)])
    assert code == 0
    assert json.loads(out) == {"n": 2, "coeffs": ["-47/6"]}  # det = -9 + 7/6
    path = write_matrix(tmp_path, "m.json", 2, [["+3", "2/04"], ["-14/006", "-3"]])
    code, out = run(capsys, ["phi", "--matrix", str(path)])
    assert code == 0 and json.loads(out) == {"n": 2, "coeffs": ["-47/6"]}


def test_rank_and_poset_limits(capsys):
    code, out = run(capsys, ["w0", "--type", "A", "--rank", "40"])
    assert code == 0 and json.loads(out)["length"] == 40 * 41 // 2
    for command in ("roots", "maxroot", "parabolic", "w0", "triple", "ssorbit", "poincare", "minorbit"):
        argv = [command, "--type", "B", "--rank", "41"] + (["--h", "1"] if command == "ssorbit" else [])
        code, out = run(capsys, argv)
        assert code == 1
        assert one_json_line(out)["error"] == "--rank 41 is above the limit of 40"
    code, out = run(capsys, ["poset", "--n", "40"])
    assert code == 0 and len(json.loads(out)["nodes"]) == 37338  # p(40)
    code, out = run(capsys, ["poset", "--n", "41", "--dot"])
    assert code == 1
    assert one_json_line(out)["error"] == "--n 41 is above the limit of 40"
    code, out = run(capsys, ["closure", "--n", "40", "--lower", ",".join(["1"] * 40), "--upper", "40"])
    assert code == 0 and json.loads(out)["dominance"] is True
    # the limit is checked before the partitions are parsed
    for lower in (",".join(["1"] * 41), "x"):
        code, out = run(capsys, ["closure", "--n", "41", "--lower", lower, "--upper", "41"])
        assert code == 1
        assert one_json_line(out)["error"] == "--n 41 is above the limit of 40"


def test_help_lists_the_limits(capsys):
    for argv in (
        ["--help"],
        ["roots", "--help"],
        ["poset", "--help"],
        ["closure", "--help"],
        ["killing", "--help"],
        ["jordan", "--help"],
        ["phi", "--help"],
        ["orbit-dim", "--help"],
        ["same-orbit", "--help"],
        ["jm", "--help"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert "at most 40" in capsys.readouterr().out


NAMES = [
    "roots", "maxroot", "parabolic", "w0", "killing", "jordan", "phi", "orbit-dim", "same-orbit",
    "triple", "jm", "poset", "closure", "ssorbit", "poincare", "minorbit",
]  # fmt: skip


def full_build_help(name=None):
    """The help text of the parser with every subcommand, or of one of its subparsers."""
    parser = cli._build_parser()
    if name is None:
        return parser.format_help()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name].format_help()


def help_of(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_and_usage_errors_read_as_in_the_full_build(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one wrap width for both sides of each comparison
    assert list(cli._COMMANDS) == NAMES
    for name in NAMES:
        assert help_of(capsys, [name, "--help"]) == full_build_help(name), name
    top = full_build_help()
    assert "{" + ",".join(NAMES) + "}" in top
    assert help_of(capsys, ["--help"]) == top
    assert help_of(capsys, ["--help", "roots"]) == top
    code, out = run(capsys, [])
    assert code == 2 and one_json_line(out)["error"] == "the following arguments are required: command"
    for bad in ("bogus", "root"):
        code, out = run(capsys, [bad])
        error = one_json_line(out)["error"]
        assert code == 2 and error.startswith(f"argument command: invalid choice: '{bad}' (choose from ")
        assert re.findall(r"[\w-]+", error.split("choose from", 1)[1]) == NAMES
    # a usage error inside a subcommand keeps its message and exit 2
    code, out = run(capsys, ["roots", "--type", "A"])
    assert code == 2 and one_json_line(out)["error"] == "the following arguments are required: --rank"
    code, out = run(capsys, ["roots", "--type", "A", "--rank", "2", "extra"])
    assert code == 2 and one_json_line(out)["error"] == "unrecognized arguments: extra"


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # [project.scripts] calls main() with no argv
    argv = ["w0", "--type", "G", "--rank", "2"]
    code, want = run(capsys, argv)
    assert code == 0 and json.loads(want)["length"] == 6
    monkeypatch.setattr(sys, "argv", ["lieorbits", *argv])
    assert run(capsys, None) == (0, want)
    monkeypatch.setattr(sys, "argv", ["lieorbits", "--help"])
    top = help_of(capsys, None)
    assert all(name in top for name in NAMES)


def test_only_a_leading_command_name_narrows_the_build(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)

    def built(argv, code):
        added.clear()
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        capsys.readouterr()
        return list(added)

    assert built(["w0", "--type", "G", "--rank", "2"], 0) == ["w0"]
    assert built(["jm", "--help"], 0) == ["jm"]
    assert built(["roots", "--type", "A", "--rank", "2", "extra"], 2) == ["roots"]
    # a command name anywhere but first never narrows the build
    assert built(["closure", "--n", "3", "--upper", "3", "--lower", "w0"], 2) == ["closure"]
    for argv in (["--help"], ["--help", "roots"], ["-h", "w0"]):
        assert built(argv, 0) == NAMES, argv
    for argv in ([], ["bogus"], ["root"], ["--", "roots", "--type", "A", "--rank", "2"], ["--out", "o", "w0"]):
        assert built(argv, 2) == NAMES, argv


def test_every_handler_is_in_the_command_table():
    handlers = {getattr(cli, name) for name in dir(cli) if name.startswith("_cmd_")}
    assert handlers == {func for func, _, _ in cli._COMMANDS.values()}
    assert len(handlers) == len(cli._COMMANDS) == 16


def _check_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, out.getvalue())
    assert len(lines) == 1, (argv, out.getvalue())
    obj = json.loads(lines[0])
    assert code == 0 or set(obj) == {"error", "hint"}, (argv, obj)


# short strings from a small alphabet reach the grammar's edges more often than arbitrary text
_SHORT = st.text(alphabet="0123456789+-/ ,.eixj_\u0663", max_size=8) | st.text(max_size=6)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(entry=_SHORT, command=st.sampled_from(["phi", "jordan", "orbit-dim", "jm"]))
@example(entry="1/0", command="phi")  # was a ZeroDivisionError traceback
def test_matrix_entry_strings_keep_the_error_contract(tmp_path_factory, entry, command):
    path = tmp_path_factory.mktemp("entries") / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [["0", entry], ["0", "0"]]}))
    _check_contract([command, "--matrix", str(path)])


@settings(derandomize=True, max_examples=90, deadline=None)  # 15 a flag, as with 60 for four
@given(text=_SHORT, flag=st.sampled_from(["--h", "--subset", "--lower", "--upper", "--rank", "--n"]))
def test_flag_strings_keep_the_error_contract(text, flag):
    argv = {
        "--rank": ["roots", "--type", "A", f"--rank={text}"],
        "--n": ["poset", f"--n={text}"],
        "--h": ["ssorbit", "--type", "B", "--rank", "2", f"--h={text}"],
        "--subset": ["parabolic", "--type", "B", "--rank", "3", f"--subset={text}"],
        "--lower": ["closure", "--n", "4", f"--lower={text}", "--upper", "2,2"],
        "--upper": ["closure", "--n", "4", "--lower", "2,1,1", f"--upper={text}"],
    }[flag]
    _check_contract(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "A", "--rank", "\u0663"],  # int() reads a non-ASCII digit
        ["roots", "--type", "A", "--rank", "1_0"],  # and an underscore
        ["roots", "--type", "A", "--rank", " 3"],  # and surrounding spaces
        ["poset", "--n", "\u0663"],
        ["parabolic", "--type", "A", "--rank", "3", "--subset", "1_0"],
        ["parabolic", "--type", "A", "--rank", "3", "--subset", " 1"],
        ["closure", "--n", "4", "--lower", "2, 2", "--upper", "3,1"],
    ],
)
def test_numbers_are_ascii_integers(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    one_json_line(out)


def test_torus_spaces_only_around_the_joining_sign_and_before_i(capsys):
    half = Fraction(1, 2)
    for h, coords in (
        ("1 + 1/2 i,2", [(1, half), (2, 0)]),
        ("3 i,0", [(0, 3), (0, 0)]),
        ("+1,007", [(1, 0), (7, 0)]),
        ("1/2+3 i,-1/2 - i", [(half, 3), (-half, -1)]),
    ):
        assert _parse_torus(h, 2).coords == tuple([GaussianRational(Fraction(a), Fraction(b)) for a, b in coords])
        code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", h])
        assert code == 0 and set(json.loads(out)) >= {"in_D", "Pi_h"}, h
    for h in ("1 0,0", "1/ 2,0", " 1,0", "1, 0", "- 3 i,0", "1 +- 2 i,0", "1 2 i,0"):
        code, out = run(capsys, ["ssorbit", "--type", "A", "--rank", "2", "--h", h])
        assert code == 2 and one_json_line(out)["error"].startswith("cannot parse --h"), h


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"n": 2, "n": 3, "entries": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}', "repeats a key"),
        ('{"n": 2, "entries": [["0", "1"], ["0", "0"]], "comment": "x"}', "no other key"),
        ('{"n": 2, "entries": [["0", "1"], ["0", "0"]], "entries": [["0", "0"], ["1", "0"]]}', "repeats a key"),
        ('{"entries": [["0", "1"], ["0", "0"]]}', "no other key"),
        ('[["0", "1"], ["0", "0"]]', "no other key"),
        ('{"n": 1, "entries": [["0", "1"], ["0", "0"]]}', "1 rows of 1 entries"),
        ('{"n": 2, "entries": ' + "[" * 100000 + "]" * 100000 + "}", "recursion"),  # exited 3, as a bug
    ],
)
def test_matrix_file_has_exactly_n_and_entries(capsys, tmp_path, text, error):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out = run(capsys, ["phi", "--matrix", str(path)])
    assert code == 2
    message = one_json_line(out)["error"]
    assert message.startswith("malformed matrix JSON") and error in message


def test_matrix_size_limit(capsys, tmp_path):
    big = write_matrix(tmp_path, "big.json", 40, [[str(i - j) for j in range(40)] for i in range(40)])
    code, out = run(capsys, ["phi", "--matrix", big])
    assert code == 0 and len(json.loads(out)["coeffs"]) == 39
    # the declared n is checked before the entries are read
    for entries in ([["0"] * 41] * 41, "not a matrix"):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 41, "entries": entries}))
        for argv in (["phi", "--matrix", str(path)], ["same-orbit", "--matrix", big, "--other", str(path)]):
            code, out = run(capsys, argv)
            assert code == 1
            assert one_json_line(out)["error"] == "matrix n 41 is above the limit of 40"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="an interpreter without the int-string limit")
def test_results_print_past_the_int_string_limit(capsys, tmp_path):
    # CPython refuses to convert an int of more than 4,300 digits to or from a string; that bounds the
    # inputs, but an exact result read from them may be longer and still prints in full
    limit = sys.get_int_max_str_digits()
    rng = random.Random(97)

    def digits(k):
        return rng.choice((1, -1)) * rng.randrange(10 ** (k - 1), 10**k)

    # upper triangular, so that phi's characteristic polynomial is the product of t - x_ii in Python ints
    n = 40
    rows = [[digits(120) if i <= j else 0 for j in range(n)] for i in range(n)]
    rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    want = [1]
    for i in range(n):  # times t - x_ii, lowest degree first
        want = [-rows[i][i] * a + b for a, b in zip(want + [0], [0] + want)]
    x = write_matrix(tmp_path, "x.json", n, [[str(v) for v in row] for row in rows])
    a, b = [[digits(3000), digits(3000)], [digits(3000), 0]], [[digits(3000), digits(3000)], [digits(3000), 0]]
    a[1][1], b[1][1] = -a[0][0], -b[0][0]
    ya = write_matrix(tmp_path, "a.json", 2, [[str(v) for v in row] for row in a])
    yb = write_matrix(tmp_path, "b.json", 2, [[str(v) for v in row] for row in b])
    code, phi = run(capsys, ["phi", "--matrix", x])
    assert code == 0
    code, kill = run(capsys, ["killing", "--matrix", ya, "--other", yb])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    coeffs, value = json.loads(phi)["coeffs"], json.loads(kill)["value"]
    assert max(map(len, coeffs)) > limit and len(value) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert [int(c) for c in coeffs] == want[n - 2 :: -1]
        assert int(value) == 4 * sum(a[i][j] * b[j][i] for i in range(2) for j in range(2))
    finally:
        sys.set_int_max_str_digits(limit)
    # the inputs stay bounded: 4,301 digits as a string or a JSON integer, and a 5,000-digit --rank
    over = "1" + "0" * 4300
    path = tmp_path / "over.json"
    for entry in (json.dumps(over), over):  # a string and a JSON integer
        path.write_text(f'{{"n": 2, "entries": [[0, {entry}], [0, 0]]}}')
        code, out = run(capsys, ["phi", "--matrix", str(path)])
        assert code == 2 and one_json_line(out)["error"].startswith("malformed matrix JSON")
    code, out = run(capsys, ["roots", "--type", "A", "--rank", "1" * 5000])
    assert code == 2 and "--rank" in one_json_line(out)["error"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="an interpreter without the int-string limit")
def test_trace_error_prints_past_the_int_string_limit(capsys, tmp_path):
    # two diagonal entries inside the input limit whose denominators multiply past it: the trace error
    # names the trace in full instead of CPython's int-string message, and the limit is restored
    limit = sys.get_int_max_str_digits()
    path = write_matrix(tmp_path, "t.json", 2, [["1/" + "7" * 4300, "0"], ["0", "1/" + "3" * 4299 + "1"]])
    code, out = run(capsys, ["phi", "--matrix", path])
    assert sys.get_int_max_str_digits() == limit
    error = one_json_line(out)["error"]
    assert code == 2 and "trace must be zero, got " in error and "int_max_str_digits" not in error
    sys.set_int_max_str_digits(0)
    try:
        trace = Fraction(1, int("7" * 4300)) + Fraction(1, int("3" * 4299 + "1"))
        assert error.endswith(f"trace must be zero, got {trace}") and len(str(trace.denominator)) > limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    calls = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, flags=re.S):
            (tmp_path / name).write_text(body)
        calls += [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("lieorbits ")]
    assert len(calls) >= 16
    for argv in calls:
        code, out = run(capsys, argv)
        assert code == 0, (argv, out)


def matrix_command_corpus():
    """200 seeded traceless matrices with n <= 8, then the two 40x40 matrices of the README.

    Conjugate pairs sit side by side; the corpus has zero matrices, nilpotent,
    semisimple and mixed Jordan types, irrational spectra and entries with
    denominators 2 and 3.
    """
    rng = random.Random(20)
    out = []
    for k in range(100):
        n = 1 + k % 8
        if k < 8:
            x = SlnElement.zero(n)
        else:
            make = (rand_traceless, rand_nilpotent, rand_rational_spectrum, rand_jordan_type)[k % 4]
            x = make(rng, n)
        if k % 5 == 0 and n > 1:
            x = Fraction(1, 3) * x
        g, gi = rand_unimodular(rng, n)
        out += [x.to_matrix(), conjugate(g, gi, x).to_matrix()]
    n = 40
    rng = random.Random(1)
    dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    dense[-1][-1] -= sum(dense[i][i] for i in range(n))
    rng = random.Random(1)
    upper = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    return out + [dense, upper]


def test_matrix_subcommands_output_pinned(capsys, tmp_path):
    # one digest over the stdout and exit code of every matrix subcommand on
    # the corpus, recorded before the polynomial kernels became fraction-free;
    # the 40x40 matrices pair with themselves, and same-orbit leaves out the
    # dense one, whose call test_same_orbit_on_the_dense_40x40_pinned pins
    corpus = matrix_command_corpus()
    paths = [
        write_matrix(tmp_path, f"m{i}.json", len(m), [[str(x) for x in row] for row in m]) for i, m in enumerate(corpus)
    ]
    others = [paths[i ^ 1] if i % 4 < 2 else paths[(i + 2) % 200] for i in range(200)] + paths[200:]
    digest = hashlib.sha256()
    for i, (path, other) in enumerate(zip(paths, others)):
        for cmd in ("jordan", "phi", "orbit-dim", "same-orbit", "killing", "jm"):
            if cmd == "same-orbit" and i == len(corpus) - 2:
                continue
            argv = [cmd, "--matrix", path] + (["--other", other] if cmd in ("same-orbit", "killing") else [])
            code, out = run(capsys, argv)
            digest.update(f"{cmd} {i} {code}\n{out}".encode())
    assert digest.hexdigest() == "2d46d385ec48370e5c9243dd20735368e83f54d2e78b787c1a6838cffce48469"


def test_same_orbit_on_the_dense_40x40_pinned(capsys, tmp_path):
    # README's dense 40x40 has an irrational spectrum: exit 1 and one JSON line, recorded before the
    # spectrum left Fraction arithmetic
    dense = matrix_command_corpus()[-2]
    path = write_matrix(tmp_path, "dense.json", 40, [[str(x) for x in row] for row in dense])
    with time_bound(5.0, "same-orbit on the dense 40x40"):
        code, out = run(capsys, ["same-orbit", "--matrix", path, "--other", path])
    assert code == 1
    assert out == (
        '{"error": "matrix has irrational eigenvalues; conjugacy testing supports rational spectra only", '
        '"hint": "conjugacy testing supports rational eigenvalues only"}\n'
    )
