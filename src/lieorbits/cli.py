"""Command-line front end: JSON in, JSON (or DOT/LaTeX) out, fixed orderings.

Exit status: 0 on success, 2 on usage problems (bad flags, a number outside
the grammar, unreadable or malformed input files), 1 on domain errors
(non-nilpotent input to jm, irrational spectra, invalid rank for a family,
an input above a limit, ...), 3 when an internal self-check fails (a bug;
the error names the function whose check failed).  Every failure prints a
one-line JSON object {"error": ..., "hint": ...}; identical inputs always
produce byte-identical outputs.

Inputs are bounded so that no call runs unbounded: --rank is at most 40,
and the --n of poset and closure and the n of a matrix file at most 40;
above a limit the call exits 1 and names it.  Integers (--rank, --n, the
items of --subset, --lower and --upper) are [+-]digits in ASCII digits.
Exact numbers (matrix entries, each part of an --h coordinate) are an
integer or [+-]digits/digits with a nonzero denominator; a value that
starts with "-" is joined to its flag, as in --h=-1/2,0, since argparse
reads a separate "-1/2,0" as a flag.  A matrix file is
{"n": ..., "entries": [[...]]}, with no other key.  An integer, numerator
or denominator of more than 4,300 digits (CPython's int-string limit) exits
2 like any number outside the grammar; a result prints in full, however
many digits it has.

A call builds only the subparser its first argument names, or all sixteen.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

# Each handler imports the modules it calls, so that a call compiles no others.
if TYPE_CHECKING:
    from . import orbits, rootsys, sln, ssorbits

MAX_RANK = 40
MAX_N = 40
# The input grammar, compiled on first use by re.fullmatch.  int() and Fraction() alone would
# also take "1_0", " 3" and non-ASCII digits, and Fraction "1/0" and "1e10000000", an exact
# 10^(10^7) that takes seconds to build.
_INT = r"[+-]?[0-9]+"
_EXACT = _INT + r"(/0*[1-9][0-9]*)?"


class _UsageError(Exception):
    def __init__(self, message: str, hint: str = "run with --help for usage"):
        super().__init__(message)
        self.hint = hint


class _LimitError(ValueError):
    """An input above a size limit: a domain error (exit 1), even inside a malformed-file check."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON reporter
        raise _UsageError(message)


def integer(text: str) -> int:
    """An ASCII integer; the name reads in argparse's "invalid integer value" message."""
    if not re.fullmatch(_INT, text):
        raise ValueError(f'{text!r} is not an integer like "-3"')
    return int(text)


def _integers(text: str, what: str, example: str) -> tuple[int, ...]:
    try:
        return tuple([integer(t) for t in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"cannot parse {what} {text!r}: {exc}", hint=f'write it like "{example}"') from exc


def _exact(text: str) -> Fraction:
    if not re.fullmatch(_EXACT, text):
        raise ValueError(f'{text!r} is not an exact rational like "-1/2"')
    return Fraction(text)


def _check_limit(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise _LimitError(f"{name} {value} is above the limit of {limit}")


def _parse_gaussian(token: str) -> ssorbits.GaussianRational:
    """Parse "a", "a/b", "a+b i" or "a-b i" exactly; spaces only around the joining sign and before i."""
    from . import ssorbits

    if not token.endswith("i"):
        return ssorbits.GaussianRational(_exact(token), Fraction(0))
    body = token[:-1].rstrip(" ")
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        re_part, im_part = body[:split].rstrip(" "), body[split] + body[split + 1 :].lstrip(" ")
    else:
        re_part, im_part = "0", body
    im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    return ssorbits.GaussianRational(_exact(re_part), _exact(im_part))


def _parse_torus(text: str, rank: int) -> ssorbits.TorusElement:
    from . import ssorbits

    try:
        coords = tuple([_parse_gaussian(t) for t in text.split(",")])
    except ValueError as exc:
        raise _UsageError(
            f"cannot parse --h {text!r}: {exc}",
            hint='coordinates look like "1", "-1/2", "1+1/2 i", comma-separated',
        ) from exc
    if len(coords) != rank:
        raise _UsageError(f"--h needs {rank} coordinates, got {len(coords)}")
    return ssorbits.TorusElement(coords)


def _parse_subset(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    subset: set[int] = set()
    for i in _integers(text, "subset", "1,3"):
        if i in subset:
            raise _UsageError(f"subset {text!r} repeats index {i}", hint="list each index once")
        subset.add(i)
    return frozenset(subset)


def matrix_to_json(x: sln.SlnElement) -> dict:
    """Matrix JSON with rationals rendered as exact strings."""
    from . import sln

    return {"n": x.n, "entries": [[sln._text(v) for v in row] for row in x.entries]}


def _unique_keys(pairs: list) -> dict:
    # json.loads keeps the last of repeated keys, so {"n": 2, "n": 3} would read as n = 3
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"matrix JSON repeats a key: {json.dumps([k for k, _ in pairs])}")
    return obj


def _json_entry(v) -> Fraction:
    # a JSON float has lost its exact value in binary by now, and a boolean is not a number
    if isinstance(v, int) and not isinstance(v, bool) or isinstance(v, str) and re.fullmatch(_EXACT, v):
        return Fraction(v)
    raise ValueError(f'matrix entries must be integers or strings like "1/2", got {json.dumps(v)}')


def matrix_from_json(obj) -> sln.SlnElement:
    """Read {"n": ..., "entries": [[...]]}, as JSON text or a dict, with no other key.

    n is an integer up to MAX_N, checked before any entry is read, and each
    entry an integer or a string "p" or "p/q".
    """
    from . import sln

    if isinstance(obj, str):
        obj = json.loads(obj, object_pairs_hook=_unique_keys)
    if not isinstance(obj, dict) or sorted(obj) != ["entries", "n"]:
        raise ValueError('matrix JSON must be {"n": ..., "entries": [[...]]}, with no other key')
    n, rows = obj["n"], obj["entries"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {json.dumps(n)}")
    _check_limit("matrix n", n, MAX_N)
    if not isinstance(rows, list) or len(rows) != n or not all(isinstance(row, list) and len(row) == n for row in rows):
        raise ValueError(f"entries must be a list of rows, {n} rows of {n} entries each")
    return sln.SlnElement.from_rows([[_json_entry(v) for v in row] for row in rows])


def _load_matrix(path: str) -> sln.SlnElement:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}", hint="check the file path") from exc
    try:
        return matrix_from_json(text)
    except _LimitError:
        raise
    except (ValueError, RecursionError) as exc:  # json.loads recurses once per nesting level
        raise _UsageError(
            f"malformed matrix JSON in {path}: {exc}",
            hint='expected {"n": 2, "entries": [["0", "1"], ["0", "0"]]}',
        ) from exc


def _root_system(args) -> rootsys.RootSystem:
    from . import rootsys

    ctype = rootsys.CartanType(args.type, args.rank)
    _check_limit("--rank", ctype.rank, MAX_RANK)
    return rootsys.build_root_system(ctype)


def _cmd_roots(args):
    rs = _root_system(args)
    return {
        "type": args.type,
        "rank": args.rank,
        "roots": [list(r.coeffs) for r in rs.roots],
        "cartan": [list(row) for row in rs.cartan_matrix],
    }


def _cmd_maxroot(args):
    from . import rootsys

    rs = _root_system(args)
    theta = rootsys.maximal_root(rs)
    return {"type": args.type, "rank": args.rank, "theta": list(theta.coeffs), "height": theta.height}


def _cmd_parabolic(args):
    from . import rootsys

    rs = _root_system(args)
    subset = _parse_subset(args.subset)
    for i in sorted(subset):
        if not 1 <= i <= rs.rank:
            raise ValueError(f"--subset index {i} is out of range 1..{rs.rank} for {args.type}{args.rank}")
    pd = rootsys.parabolic_data(rs, subset)
    return {
        "type": args.type,
        "rank": args.rank,
        "subset": sorted(pd.subset),
        "delta_s_plus": [list(r.coeffs) for r in pd.delta_s_plus],
        "delta_s_minus": [list(r.coeffs) for r in pd.delta_s_minus],
        "dim_p": pd.dim_p,
        "dim_l": pd.dim_l,
        "dim_u": pd.dim_u,
    }


def _cmd_w0(args):
    from . import rootsys

    rs = _root_system(args)
    word = rootsys.longest_element(rs)
    return {"type": args.type, "rank": args.rank, "word": list(word.letters), "length": len(word)}


def _cmd_killing(args):
    x = _load_matrix(args.matrix)
    y = _load_matrix(args.other)
    from . import sln

    return {"value": sln._text(sln.killing(x, y))}


def _cmd_jordan(args):
    x = _load_matrix(args.matrix)
    from . import sln

    pair = sln.jordan_chevalley(x)
    return {
        "semisimple": matrix_to_json(pair.semisimple_part),
        "nilpotent": matrix_to_json(pair.nilpotent_part),
    }


def _cmd_phi(args):
    x = _load_matrix(args.matrix)
    from . import sln

    return {"n": x.n, "coeffs": [sln._text(c) for c in sln.invariants_phi(x)]}


def _cmd_orbit_dim(args):
    x = _load_matrix(args.matrix)
    from . import sln

    cent = sln.centralizer_dim(x)
    return {"n": x.n, "orbit_dim": x.n * x.n - 1 - cent, "centralizer_dim": cent}


def _cmd_same_orbit(args):
    x = _load_matrix(args.matrix)
    y = _load_matrix(args.other)
    from . import sln

    return {"same_orbit": sln.same_orbit(x, y)}


def _cmd_triple(args):
    from . import sln, triples  # triples loads sln

    rs = _root_system(args)
    t = triples.kostant_principal(rs)
    return {
        "type": args.type,
        "rank": args.rank,
        "h_coroot_coords": [sln._text(c) for c in t.h.coords],
        "c": [sln._text(c) for c in t.c],
        "verified": True,
    }


def _cmd_jm(args):
    x = _load_matrix(args.matrix)
    from . import triples

    t = triples.jacobson_morozov_sln(x)
    return {"x": matrix_to_json(t.x), "h": matrix_to_json(t.h), "y": matrix_to_json(t.y)}


def _cmd_poset(args):
    _check_limit("--n", args.n, MAX_N)
    from . import orbits

    poset = orbits.hasse_diagram(args.n)
    dims = [orbits.orbit_dim_partition(p) for p in poset.nodes]
    if args.dot:  # edges point upward in the closure order
        lines = [f'digraph "nilpotent_orbits_n{args.n}" {{']
        lines += [f'  n{i} [label="{p} (dim {d})"];' for i, (p, d) in enumerate(zip(poset.nodes, dims))]
        lines += [f"  n{lo} -> n{hi};" for lo, hi in poset.covers]
        return "\n".join(lines) + "\n}\n"
    return {
        "n": args.n,
        "nodes": [{"parts": list(p.parts), "dim": d} for p, d in zip(poset.nodes, dims)],
        "covers": [list(c) for c in poset.covers],
    }


def _cmd_closure(args):
    _check_limit("--n", args.n, MAX_N)
    from . import orbits

    lower = orbits.Partition(_integers(args.lower, "partition", "3,1,1"))
    upper = orbits.Partition(_integers(args.upper, "partition", "3,1,1"))
    if lower.n != args.n or upper.n != args.n:
        raise _UsageError(
            f"--n {args.n} does not match the partitions: --lower sums to {lower.n}, --upper to {upper.n}",
            hint="--n must equal the sum of the parts of both partitions",
        )
    return {
        "n": args.n,
        "lower": list(lower.parts),
        "upper": list(upper.parts),
        "dominance": orbits.dominance_leq(lower, upper),
        "rank_oracle": orbits.closure_leq_rank(lower, upper),
    }


def _cmd_ssorbit(args):
    from . import ssorbits

    rs = _root_system(args)
    h = _parse_torus(args.h, rs.rank)
    in_d = ssorbits.in_fundamental_domain(rs, h)
    out = {"in_D": in_d, "Pi_h": sorted(ssorbits.pi_of_h(rs, h))}
    if in_d:
        out["orbit_dim"] = ssorbits.ss_orbit_dim(rs, h)
        out["regular"] = ssorbits.is_regular_semisimple(rs, h)
        out["dims"] = list(ssorbits.compactification_dims(rs, h))
    return out


def _cmd_poincare(args):
    from . import topology

    data = topology.exponents(_root_system(args))
    if args.latex:
        return "".join([f"(1+t^{{{d}}})" for d in data.dims]) + "\n"
    return {"type": args.type, "rank": args.rank, "dims": list(data.dims), "poly": list(data.poly)}


def _cmd_minorbit(args):
    from . import minorbit

    rs = _root_system(args)
    rep = minorbit.min_orbit_report(rs)
    return {
        "type": args.type,
        "rank": args.rank,
        "theta": list(rep.theta.coeffs),
        "pi_theta": sorted(rep.pi_theta),
        "dim_P_Omin": rep.dim_P_Omin,
        "dim_Omin": rep.dim_Omin,
    }


def _add_type_rank(p: argparse.ArgumentParser):
    p.add_argument("--type", required=True, choices=list("ABCDEFG"), help="Cartan family")
    p.add_argument("--rank", required=True, type=integer, help=f"rank of the root system (at most {MAX_RANK})")


def _matrices(*flags: str):
    def add(p: argparse.ArgumentParser):
        for flag in flags:
            p.add_argument(flag, required=True, help=f"matrix JSON file (n at most {MAX_N})")
    return add


def _add_roots(p: argparse.ArgumentParser):
    _add_type_rank(p)
    p.add_argument("--json", action="store_true", help="JSON output (the default)")


def _add_parabolic(p: argparse.ArgumentParser):
    _add_type_rank(p)
    p.add_argument("--subset", default=None, help='simple-root indices like "1,3"; empty for the Borel')


def _add_poset(p: argparse.ArgumentParser):
    p.add_argument("--n", required=True, type=integer, help=f"matrix size (at most {MAX_N})")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true", help="JSON output (the default)")
    grp.add_argument("--dot", action="store_true", help="DOT output")


def _add_closure(p: argparse.ArgumentParser):
    p.add_argument("--n", required=True, type=integer, help=f"matrix size (at most {MAX_N})")
    p.add_argument("--lower", required=True, help='partition like "2,2,2"')
    p.add_argument("--upper", required=True, help='partition like "3,1,1,1"')


def _add_ssorbit(p: argparse.ArgumentParser):
    _add_type_rank(p)
    text = 'coordinates over the simple coroots, like "1,0" or "1+1/2 i,2"; write --h=-1/2,0 for a leading "-"'
    p.add_argument("--h", required=True, help=text)


def _add_poincare(p: argparse.ArgumentParser):
    _add_type_rank(p)
    p.add_argument("--latex", action="store_true", help="print the factored product instead of JSON")


# name -> (handler, help line, the function that adds the arguments after --out), in --help order
_COMMANDS = {
    "roots": (_cmd_roots, "emit the full root system as JSON", _add_roots),
    "maxroot": (_cmd_maxroot, "the maximal root", _add_type_rank),
    "parabolic": (_cmd_parabolic, "root data of a standard parabolic", _add_parabolic),
    "w0": (_cmd_w0, "reduced word for the longest Weyl element", _add_type_rank),
    "killing": (_cmd_killing, "Killing form of two matrices", _matrices("--matrix", "--other")),
    "jordan": (_cmd_jordan, "Jordan decomposition of a matrix", _matrices("--matrix")),
    "phi": (_cmd_phi, "adjoint-quotient invariants (characteristic coefficients)", _matrices("--matrix")),
    "orbit-dim": (_cmd_orbit_dim, "orbit and centralizer dimensions", _matrices("--matrix")),
    "same-orbit": (_cmd_same_orbit, "conjugacy test for rational spectra", _matrices("--matrix", "--other")),
    "triple": (_cmd_triple, "principal sl2-triple data for a Cartan type", _add_type_rank),
    "jm": (_cmd_jm, "complete a nilpotent matrix to an sl2-triple", _matrices("--matrix")),
    "poset": (_cmd_poset, "nilpotent orbit poset for traceless n x n matrices", _add_poset),
    "closure": (_cmd_closure, "closure comparison of two orbit partitions", _add_closure),
    "ssorbit": (_cmd_ssorbit, "semisimple orbit data for a torus element", _add_ssorbit),
    "poincare": (_cmd_poincare, "principal sl2 summand dimensions and their product polynomial", _add_poincare),
    "minorbit": (_cmd_minorbit, "minimal nilpotent orbit report", _add_type_rank),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    # the docstring's last paragraph is about this parser, not for --help
    parser = _Parser(prog="lieorbits", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _, help_text, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        add_arguments(p)
    return parser


def _raise_site(exc: BaseException) -> str:
    """Module-qualified name of the function that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    return f"{frame.f_globals.get('__name__', '?')}.{frame.f_code.co_name}"


def _write(payload, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
    try:
        if out_path:
            Path(out_path).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}", hint="check --out") from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argv[0] is the command if it names one, and its subparser alone parses argv the same; else all are built
    # for the help or error.  A future top-level option (ROADMAP item 3's --stats) must keep this rule exact.
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = _build_parser(names).parse_args(argv)
        _write(_COMMANDS[args.command][0](args), args.out)
        return 0
    except _UsageError as exc:
        code, error, hint = 2, str(exc), exc.hint
    except ValueError as exc:
        code, error = 1, str(exc)
        hint = getattr(exc, "hint", "see --help of the subcommand for the expected inputs")
    except RuntimeError as exc:
        code, error = 3, f"self-check failed in {_raise_site(exc)}: {exc}"
        hint = "this is a bug in lieorbits; please report it with the input that triggered it"
    sys.stdout.write(json.dumps({"error": error, "hint": hint}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
