"""Command-line front end: JSON in, JSON (or DOT/LaTeX) out, fixed orderings.

Exit status: 0 on success, 2 on usage problems (bad flags, unreadable or
malformed input files), 1 on domain errors (non-nilpotent input to jm,
irrational spectra, invalid rank for a family, ...), 3 when an internal
self-check fails (a bug; the error names the function whose check failed).
Every failure prints a one-line JSON object {"error": ..., "hint": ...};
identical inputs always produce byte-identical outputs.

Inputs are bounded so that no call runs unbounded: --rank is at most 40 and
the --n of poset and closure at most 40; above a limit the call exits 1 and
names it.  Exact numbers, in matrix entries and in each part of an --h
coordinate, are [+-]digits or [+-]digits/digits with a nonzero denominator.
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
# sln's matrix-entry grammar, for --h, whose handler loads no sln; Fraction alone would
# also take "1/0" and "1e10000000", an exact 10^(10^7)
_EXACT = r"[+-]?[0-9]+(/0*[1-9][0-9]*)?"  # compiled on first use, by re.fullmatch


class _UsageError(Exception):
    def __init__(self, message: str, hint: str = "run with --help for usage"):
        super().__init__(message)
        self.hint = hint


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the JSON reporter
        raise _UsageError(message)


# keyed by qualified class name, so that looking up a hint imports nothing
_DOMAIN_HINTS = {
    "lieorbits.sln.IrrationalSpectrumError": "conjugacy testing supports rational eigenvalues only",
}


def _exact(text: str) -> Fraction:
    if not re.fullmatch(_EXACT, text):
        raise ValueError(f'{text!r} is not an exact rational like "-1/2"')
    return Fraction(text)


def _parse_gaussian(token: str) -> ssorbits.GaussianRational:
    """Parse "a", "a/b", "a+b i" or "a-b i" (spaces optional) exactly."""
    from . import ssorbits

    s = token.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coordinate")
    if s.endswith("i"):
        body = s[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split <= 0:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return ssorbits.GaussianRational(_exact(re_part), _exact(im_part))
    return ssorbits.GaussianRational(_exact(s), Fraction(0))


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


def _parse_partition(text: str) -> orbits.Partition:
    from . import orbits

    try:
        parts = tuple([int(t) for t in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"cannot parse partition {text!r}: {exc}", hint='write it like "3,1,1"') from exc
    return orbits.Partition(parts)


def _parse_subset(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        indices = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"cannot parse subset {text!r}: {exc}", hint='write it like "1,3"') from exc
    subset: set[int] = set()
    for i in indices:
        if i in subset:
            raise _UsageError(f"subset {text!r} repeats index {i}", hint="list each index once")
        subset.add(i)
    return frozenset(subset)


def _load_matrix(path: str) -> sln.SlnElement:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}", hint="check the file path") from exc
    from . import sln

    try:
        return sln.matrix_from_json(text)
    except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        raise _UsageError(
            f"malformed matrix JSON in {path}: {exc}",
            hint='expected {"n": 2, "entries": [["0", "1"], ["0", "0"]]}',
        ) from exc


def _root_system(args) -> rootsys.RootSystem:
    from . import rootsys

    ctype = rootsys.CartanType(args.type, args.rank)
    if ctype.rank > MAX_RANK:
        raise ValueError(f"--rank {ctype.rank} is above the limit of {MAX_RANK}")
    return rootsys.build_root_system(ctype)


def _cmd_roots(args):
    from . import rootsys

    return rootsys.root_system_to_json(_root_system(args))


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

    return {"value": str(sln.killing(x, y))}


def _cmd_jordan(args):
    x = _load_matrix(args.matrix)
    from . import sln

    pair = sln.jordan_chevalley(x)
    return {
        "semisimple": sln.matrix_to_json(pair.semisimple_part),
        "nilpotent": sln.matrix_to_json(pair.nilpotent_part),
    }


def _cmd_phi(args):
    x = _load_matrix(args.matrix)
    from . import sln

    return {"n": x.n, "coeffs": [str(c) for c in sln.invariants_phi(x)]}


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
    from . import triples

    rs = _root_system(args)
    t = triples.kostant_principal(rs)
    return {
        "type": args.type,
        "rank": args.rank,
        "h_coroot_coords": [str(c) for c in t.h.coords],
        "c": [str(c) for c in t.c],
        "verified": True,
    }


def _cmd_jm(args):
    x = _load_matrix(args.matrix)
    from . import sln, triples

    t = triples.jacobson_morozov_sln(x)
    return {
        "x": sln.matrix_to_json(t.x),
        "h": sln.matrix_to_json(t.h),
        "y": sln.matrix_to_json(t.y),
    }


def _check_n(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"--n {n} is above the limit of {MAX_N}")


def _cmd_poset(args):
    _check_n(args.n)
    from . import orbits

    poset = orbits.hasse_diagram(args.n)
    if args.dot:
        return orbits.poset_to_dot(poset)
    return orbits.poset_to_json(poset)


def _cmd_closure(args):
    _check_n(args.n)
    from . import orbits

    lower = _parse_partition(args.lower)
    upper = _parse_partition(args.upper)
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

    rs = _root_system(args)
    data = topology.exponents(rs)
    if args.latex:
        return topology.poincare_latex(rs) + "\n"
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
    p.add_argument("--rank", required=True, type=int, help=f"rank of the root system (at most {MAX_RANK})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lieorbits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return p

    p = add("roots", _cmd_roots, "emit the full root system as JSON")
    _add_type_rank(p)
    p.add_argument("--json", action="store_true", help="JSON output (the default)")

    p = add("maxroot", _cmd_maxroot, "the maximal root")
    _add_type_rank(p)

    p = add("parabolic", _cmd_parabolic, "root data of a standard parabolic")
    _add_type_rank(p)
    p.add_argument("--subset", default=None, help='simple-root indices like "1,3"; empty for the Borel')

    p = add("w0", _cmd_w0, "reduced word for the longest Weyl element")
    _add_type_rank(p)

    p = add("killing", _cmd_killing, "Killing form of two matrices")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--other", required=True, help="second matrix JSON file")

    p = add("jordan", _cmd_jordan, "Jordan decomposition of a matrix")
    p.add_argument("--matrix", required=True)

    p = add("phi", _cmd_phi, "adjoint-quotient invariants (characteristic coefficients)")
    p.add_argument("--matrix", required=True)

    p = add("orbit-dim", _cmd_orbit_dim, "orbit and centralizer dimensions")
    p.add_argument("--matrix", required=True)

    p = add("same-orbit", _cmd_same_orbit, "conjugacy test for rational spectra")
    p.add_argument("--matrix", required=True)
    p.add_argument("--other", required=True)

    p = add("triple", _cmd_triple, "principal sl2-triple data for a Cartan type")
    _add_type_rank(p)

    p = add("jm", _cmd_jm, "complete a nilpotent matrix to an sl2-triple")
    p.add_argument("--matrix", required=True)

    p = add("poset", _cmd_poset, "nilpotent orbit poset for traceless n x n matrices")
    p.add_argument("--n", required=True, type=int, help=f"matrix size (at most {MAX_N})")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true", help="JSON output (the default)")
    grp.add_argument("--dot", action="store_true", help="DOT output")

    p = add("closure", _cmd_closure, "closure comparison of two orbit partitions")
    p.add_argument("--n", required=True, type=int, help=f"matrix size (at most {MAX_N})")
    p.add_argument("--lower", required=True, help='partition like "2,2,2"')
    p.add_argument("--upper", required=True, help='partition like "3,1,1,1"')

    p = add("ssorbit", _cmd_ssorbit, "semisimple orbit data for a torus element")
    _add_type_rank(p)
    p.add_argument("--h", required=True, help='coordinates over the simple coroots, like "1,0" or "1+1/2 i,2"')

    p = add("poincare", _cmd_poincare, "principal sl2 summand dimensions and their product polynomial")
    _add_type_rank(p)
    p.add_argument("--latex", action="store_true", help="print the factored product instead of JSON")

    p = add("minorbit", _cmd_minorbit, "minimal nilpotent orbit report")
    _add_type_rank(p)

    return parser


def _raise_site(exc: BaseException) -> str:
    """Module-qualified name of the function that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    return f"{frame.f_globals.get('__name__', '?')}.{frame.f_code.co_name}"


def _write(payload, out_path: str | None, stream) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        stream.write(text)


def main(argv=None) -> int:
    stream = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        stream.write(json.dumps({"error": str(exc), "hint": exc.hint}) + "\n")
        return 2
    try:
        payload = args.func(args)
    except _UsageError as exc:
        stream.write(json.dumps({"error": str(exc), "hint": exc.hint}) + "\n")
        return 2
    except ValueError as exc:
        kind = f"{type(exc).__module__}.{type(exc).__qualname__}"
        hint = _DOMAIN_HINTS.get(kind, "see --help of the subcommand for the expected inputs")
        stream.write(json.dumps({"error": str(exc), "hint": hint}) + "\n")
        return 1
    except RuntimeError as exc:
        error = f"self-check failed in {_raise_site(exc)}: {exc}"
        hint = "this is a bug in lieorbits; please report it with the input that triggered it"
        stream.write(json.dumps({"error": error, "hint": hint}) + "\n")
        return 3
    try:
        _write(payload, args.out, stream)
    except OSError as exc:
        stream.write(json.dumps({"error": f"cannot write output: {exc}", "hint": "check --out"}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
