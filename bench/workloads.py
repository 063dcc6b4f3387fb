"""The four workloads: seeded op lists, warm-up passes and per-op checks.

An op is one call into lieorbits through a public function, looked up on its
module at call time (so the traced run's wrappers see it), plus a check of
the result against an answer the generator knows by construction (see
oracles.py).  Each pass draws fresh inputs from its own seeded generator and
interleaves the op kinds in a seeded order, so host drift falls on all kinds
alike and the op mix of a run does not depend on where it stops.

Import this module only after lieorbits is imported: the worker times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles as O
from lieorbits import cli, minorbit, orbits, rootsys, sln, ssorbits, topology, triples


@dataclass(slots=True)
class Op:
    """One call into the program, with the check its outcome must pass.

    expect is the exception class the call must raise, or None when it must
    return; check receives the return value, or the exception when one was
    expected.  defect names a known contract defect the op exercises.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    expect: type[Exception] | None = None
    defect: str | None = None


def judge(op: Op, value, err) -> bool:
    """True iff the outcome is the one the generator knows to be right."""
    if (err is None) != (op.expect is None):
        return False
    if err is not None and not isinstance(err, op.expect):
        return False
    try:
        return bool(op.check(err if err is not None else value))
    except Exception:  # a malformed result fails its check
        return False


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# weyl_parabolic: root systems, Weyl group, parabolics, semisimple orbits

# Every pass covers all of these, so each pass has the same mix of sizes and a
# run's quantiles do not hinge on which ranks its seed happened to draw.
_TYPES = (
    ("A", 3), ("A", 6), ("A", 9), ("A", 12),
    ("B", 3), ("B", 5), ("B", 8),
    ("C", 4), ("C", 7), ("C", 10),
    ("D", 4), ("D", 6), ("D", 9),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
)  # fmt: skip


def _torus(rng, fam, r, inside: bool):
    """A torus element with chosen simple values; returns (h, Pi_h, first violation)."""
    vals = []
    for _ in range(r):
        u = rng.random()
        if u < 0.35:
            vals.append((Fraction(0), Fraction(0)))
        elif u < 0.45:
            vals.append((Fraction(0), Fraction(rng.randint(1, 3), rng.randint(1, 2))))
        else:
            im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)
            vals.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), im))
    violation = None
    if not inside:
        for i in sorted(rng.sample(range(r), rng.randint(1, min(2, r)))):
            if rng.random() < 0.7:
                vals[i] = (Fraction(-rng.randint(1, 4), rng.randint(1, 3)), vals[i][1])
            else:
                vals[i] = (Fraction(0), Fraction(-rng.randint(1, 3)))
        violation = next(i + 1 for i, (re, im) in enumerate(vals) if re < 0 or (re == 0 and im < 0))
    inv = O.inverse_cartan(fam, r)
    coords = []
    for row in inv:
        re = sum((c * v[0] for c, v in zip(row, vals)), Fraction(0))
        im = sum((c * v[1] for c, v in zip(row, vals)), Fraction(0))
        coords.append(ssorbits.GaussianRational(re, im))
    pi = frozenset(i + 1 for i, v in enumerate(vals) if v == (0, 0))
    return ssorbits.TorusElement(tuple(coords)), pi, violation


def _weyl_ops(rs, fam, r, rng) -> list[Op]:
    ctype = (fam, r)
    nroots = O.num_roots(fam, r)
    npos = nroots // 2
    sigma = O.minus_w0(fam, r)
    subset = frozenset(i for i in range(1, r + 1) if rng.random() < 0.4)
    levi = O.levi_root_count(fam, r, subset)
    dual = frozenset(sigma[i] for i in subset)

    def check_build(out):
        return (
            out.cartan_matrix == O.cartan(fam, r)
            and len(out.roots) == nroots
            and len(out.positive_roots) == npos
            and max(x.height for x in out.roots) == O.coxeter_number(fam, r) - 1
        )

    def check_parabolic(pd):
        return (
            pd.subset == subset
            and len(pd.delta_s) == levi
            and len(pd.delta_s_plus) == len(pd.delta_s_minus) == levi // 2
            and pd.dim_l == r + levi
            and pd.dim_u == npos - levi // 2
            and pd.dim_p == pd.dim_l + pd.dim_u
        )

    def check_verify(rep):
        return (
            rep.ok
            and rep.subset == subset
            and rep.dual == dual
            and rep.dim_l == r + levi
            and rep.dim_intersection == r + levi
            and len(rep.intersection_roots) == levi
        )

    def check_exponents(data):
        dims = tuple(2 * m + 1 for m in O.exponents(fam, r))
        return data.dims == dims and data.poly == O.poly_of_dims(dims) and sum(c for _, c in data.heights) == npos

    def check_minorbit(rep):
        a = O.cartan(fam, r)
        theta = rep.theta.coeffs
        orth = frozenset(i + 1 for i in range(r) if sum(theta[j] * a[j][i] for j in range(r)) == 0)
        return (
            rep.theta.height == O.coxeter_number(fam, r) - 1
            and rep.pi_theta == orth
            and rep.dim_Omin == 2 * O.dual_coxeter_number(fam, r) - 2
            and rep.dim_P_Omin == rep.dim_Omin - 1
        )

    def check_kostant(t):
        a = O.cartan(fam, r)
        c = t.h.coords
        return t.c == c and all(sum(a[i][j] * c[j] for j in range(r)) == 2 for i in range(r))

    ops = [
        Op("build_root_system", lambda: rootsys.build_root_system(rootsys.CartanType(*ctype)), check_build),
        Op("longest_element", lambda: rootsys.longest_element(rs), lambda w: O.walk_is_longest(fam, r, w.letters)),
        Op("dual_subset", lambda: rootsys.dual_subset(rs, subset), lambda d: d == dual),
        Op("parabolic_data", lambda: rootsys.parabolic_data(rs, subset), check_parabolic),
        Op("verify_dual_parabolic", lambda: ssorbits.verify_dual_parabolic(rs, subset), check_verify),
        Op("exponents", lambda: topology.exponents(rs), check_exponents),
        Op("min_orbit_report", lambda: minorbit.min_orbit_report(rs), check_minorbit),
        Op("kostant_principal", lambda: triples.kostant_principal(rs), check_kostant),
    ]
    # compactification_dims always gets a dominant h (its cost is a w0 walk);
    # ss_orbit_dim gets one outside the domain 40% of the time
    for kind in ("compactification_dims", "ss_orbit_dim"):
        h, pi, violation = _torus(rng, fam, r, inside=kind == "compactification_dims" or rng.random() < 0.6)
        call = lambda kind=kind, h=h: getattr(ssorbits, kind)(rs, h)  # noqa: E731
        if violation is not None:
            ops.append(Op(kind, call, lambda e, v=violation: e.index == v, expect=ssorbits.FundamentalDomainError))
            continue
        orbit = nroots - O.levi_root_count(fam, r, pi)
        if kind == "ss_orbit_dim":
            ops.append(Op(kind, call, lambda d, orbit=orbit: d == orbit))
        else:
            dual_pi = frozenset(sigma[i] for i in pi)
            want = (orbit, O.dim_u(fam, r, pi), O.dim_u(fam, r, dual_pi))
            ops.append(Op(kind, call, lambda d, want=want: d == want))
    return ops


class Workload:
    """setup() is the program work a user does once; warm_ops() is the warm-up pass."""

    def setup(self):
        pass


class WeylParabolic(Workload):
    name = "weyl_parabolic"

    def setup(self):
        self.systems = {t: rootsys.build_root_system(rootsys.CartanType(*t)) for t in _TYPES}

    def warm_ops(self) -> list[Op]:
        rng = random.Random("warm-up")
        return [op for t in (("A", 3), ("B", 3), ("G", 2)) for op in _weyl_ops(self.systems[t], *t, rng)]

    def make_pass(self, rng) -> list[Op]:
        ops = [op for t in _TYPES for op in _weyl_ops(self.systems[t], *t, rng)]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# matrix_algebra: unimodular conjugates of seeded Jordan-type matrices


class JordanCase:
    """x = P J P^-1 for a Jordan matrix J = D + N with a known block list.

    blocks is a list of (eigenvalue, size); P is a product of integer
    transvections, so P^-1 is known exactly and conjugation never leaves Q.
    """

    def __init__(self, blocks, moves):
        self.blocks = blocks
        self.n = sum(s for _, s in blocks)
        self.moves = moves
        d = [[Fraction(0)] * self.n for _ in range(self.n)]
        nil = [[Fraction(0)] * self.n for _ in range(self.n)]
        off = 0
        for lam, s in blocks:
            for i in range(s):
                d[off + i][off + i] = lam
                if i + 1 < s:
                    nil[off + i][off + i + 1] = Fraction(1)
            off += s
        self.d, self.nil = d, nil
        self.j = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(d, nil)]

    def conj(self, m):
        """P m P^-1, applying each transvection I + c E_ij as a row and a column operation."""
        m = [row[:] for row in m]
        for i, j, c in self.moves:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
        return m

    def x(self):
        return sln.SlnElement.from_rows(self.conj(self.j))

    def jordan_type(self):
        by_value: dict[Fraction, list[int]] = {}
        for lam, s in self.blocks:
            by_value.setdefault(lam, []).append(s)
        return {lam: sorted(sizes, reverse=True) for lam, sizes in by_value.items()}

    def orbit_dim(self) -> int:
        cent = 0
        for sizes in self.jordan_type().values():
            cent += sum((2 * i + 1) * s for i, s in enumerate(sizes))
        return self.n * self.n - cent

    def eigenvalues(self):
        return [lam for lam, s in self.blocks for _ in range(s)]


def _moves(rng, n):
    out = []
    for _ in range(n + 2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        out.append((i, j, rng.choice((-1, 1, 2))))
    return out


def _jordan_case(rng, n, mode) -> JordanCase:
    """mode: 'nilpotent', 'semisimple' or 'mixed'; the trace is zero by construction."""
    if mode == "nilpotent":
        blocks = [(Fraction(0), s) for s in O.random_partition(rng, n)]
    else:
        k = rng.randint(2, min(3, n))
        groups = O.random_partition(rng, n)
        while len(groups) < k:
            groups = O.random_partition(rng, n)
        groups = list(groups[: k - 1]) + [sum(groups[k - 1 :])]
        values = rng.sample(range(-3, 4), k - 1)
        last = -Fraction(sum(v * m for v, m in zip(values, groups)), groups[-1])
        blocks = []
        for v, m in zip(values + [last], groups):
            sizes = (1,) * m if mode == "semisimple" else O.random_partition(rng, m)
            blocks += [(Fraction(v), s) for s in sizes]
    return JordanCase(blocks, _moves(rng, n))


def _other_type(case: JordanCase):
    """Blocks with the same eigenvalues but another Jordan type, or another spectrum."""
    blocks = list(case.blocks)
    for k, (lam, s) in enumerate(blocks):
        if s >= 2:
            return blocks[:k] + [(lam, s - 1), (lam, 1)] + blocks[k + 1 :]
    for k in range(len(blocks)):
        for m in range(k + 1, len(blocks)):
            if blocks[k][0] == blocks[m][0]:
                rest = [b for t, b in enumerate(blocks) if t not in (k, m)]
                return rest + [(blocks[k][0], 2)]
    return [(2 * lam, s) for lam, s in blocks]


def _matrix_ops(rng, n) -> list[Op]:
    """One op of each kind on n-by-n inputs (two for the kinds with two outcomes)."""
    ops = []

    # modes are fixed per slot, so every pass has the same mix of spectra
    for mode in ("mixed", "nilpotent"):
        case = _jordan_case(rng, n, mode)
        x = case.x()
        want_s, want_n = case.conj(case.d), case.conj(case.nil)
        ops.append(
            Op(
                "jordan_chevalley",
                lambda x=x: sln.jordan_chevalley(x),
                lambda p, ws=want_s, wn=want_n: p.semisimple_part.to_matrix() == ws
                and p.nilpotent_part.to_matrix() == wn,
            )
        )
    for mode in ("mixed", "semisimple"):
        case = _jordan_case(rng, n, mode)
        p = O.poly_from_roots(case.eigenvalues())
        want = tuple(p[case.n - k] for k in range(2, case.n + 1))
        ops.append(Op("invariants_phi", lambda x=case.x(): sln.invariants_phi(x), lambda v, w=want: v == w))
    for kind, mode in (("orbit_dim", "mixed"), ("centralizer_dim", "nilpotent")):
        case = _jordan_case(rng, n, mode)
        want = case.orbit_dim() if kind == "orbit_dim" else case.n * case.n - 1 - case.orbit_dim()
        ops.append(Op(kind, lambda x=case.x(), kind=kind: getattr(sln, kind)(x), lambda v, w=want: v == w))
    for mode in ("semisimple", "mixed"):
        case = _jordan_case(rng, n, mode)
        want = all(s == 1 for _, s in case.blocks)
        ops.append(Op("is_semisimple", lambda x=case.x(): sln.is_semisimple(x), lambda v, w=want: v is w))
    for mode in ("nilpotent", "mixed"):
        case = _jordan_case(rng, n, mode)
        want = all(lam == 0 for lam, _ in case.blocks)
        ops.append(Op("is_nilpotent", lambda x=case.x(): sln.is_nilpotent(x), lambda v, w=want: v is w))
    for conjugate, mode in ((True, "mixed"), (False, "nilpotent")):
        case = _jordan_case(rng, n, mode)
        other = JordanCase(case.blocks if conjugate else _other_type(case), _moves(rng, case.n))
        ops.append(
            Op("same_orbit", lambda x=case.x(), y=other.x(): sln.same_orbit(x, y), lambda v, w=conjugate: v is w)
        )
    # +-sqrt(2) block: the conjugacy oracle must refuse an irrational spectrum
    rest = _jordan_case(rng, n - 2, "nilpotent")
    m = [[Fraction(0)] * n for _ in range(n)]
    m[0][1], m[1][0] = Fraction(2), Fraction(1)
    for i in range(n - 2):
        for j in range(n - 2):
            m[2 + i][2 + j] = rest.j[i][j]
    x = sln.SlnElement.from_rows(JordanCase([(Fraction(0), n)], _moves(rng, n)).conj(m))
    ops.append(Op("same_orbit", lambda x=x: sln.same_orbit(x, x), lambda e: True, expect=sln.IrrationalSpectrumError))
    for _ in range(2):
        case = _jordan_case(rng, n, "nilpotent")
        h_norm = sum((s - 1 - 2 * i) ** 2 for _, s in case.blocks for i in range(s))
        ops.append(
            Op(
                "jacobson_morozov_sln",
                lambda x=case.x(): triples.jacobson_morozov_sln(x),
                lambda t, x=case.conj(case.j), hn=h_norm: _check_triple(
                    t.x.to_matrix(), t.h.to_matrix(), t.y.to_matrix(), x, hn
                ),
            )
        )
    for kind in ("killing", "kks_form"):
        cases = [_jordan_case(rng, n, mode) for mode in ("mixed", "semisimple", "nilpotent")]
        moves = _moves(rng, n)
        mats = [JordanCase(c.blocks, moves) for c in cases]
        xs = [sln.SlnElement.from_rows(mj.conj(mj.j)) for mj in mats]
        a, b, c = (mj.j for mj in mats)
        if kind == "killing":
            want = 2 * n * O.trace(O.mat_mul(a, b))
            ops.append(Op(kind, lambda xs=xs: sln.killing(xs[0], xs[1]), lambda v, w=want: v == w))
        else:
            want = 2 * n * O.trace(O.mat_mul(a, O.comm(b, c)))
            ops.append(Op(kind, lambda xs=xs: sln.kks_form(*xs), lambda v, w=want: v == w))
    return ops


def _check_triple(xm, hm, ym, x, h_norm) -> bool:
    """x is the input, [x,y] = h, [h,x] = 2x, [h,y] = -2y, and tr(h^2) is the sum of squared string weights."""
    return (
        xm == x
        and O.comm(xm, ym) == hm
        and O.comm(hm, xm) == O.mat_scale(xm, 2)
        and O.comm(hm, ym) == O.mat_scale(ym, -2)
        and O.trace(O.mat_mul(hm, hm)) == h_norm
    )


class MatrixAlgebra(Workload):
    name = "matrix_algebra"

    def warm_ops(self) -> list[Op]:
        return _matrix_ops(random.Random("warm-up"), 3)

    def make_pass(self, rng) -> list[Op]:
        ops = [op for n in range(3, 9) for op in _matrix_ops(rng, n)]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# nilpotent_poset: partitions, dominance, rank-condition closure, Hasse diagrams


def _poset_ops(rng, hasse_sizes, closure_sizes, pair_sizes) -> list[Op]:
    ops = []
    for n in hasse_sizes:
        ops.append(Op("hasse_diagram", lambda n=n: orbits.hasse_diagram(n), lambda p, n=n: _check_poset(n, p.n, [x.parts for x in p.nodes], p.covers)))
    for n in closure_sizes:
        lam, mu = O.random_partition(rng, n), O.random_partition(rng, n)
        a, b = orbits.Partition(lam), orbits.Partition(mu)
        want = O.dominates(lam, mu)
        ops.append(Op("closure_leq_rank", lambda a=a, b=b: orbits.closure_leq_rank(a, b), lambda v, w=want: v is w))
    for n in pair_sizes:
        lam, mu = O.random_partition(rng, n), O.random_partition(rng, n)
        a, b = orbits.Partition(lam), orbits.Partition(mu)
        want = O.dominates(lam, mu)
        ops.append(Op("dominance_leq", lambda a=a, b=b: orbits.dominance_leq(a, b), lambda v, w=want: v is w))
        ops.append(
            Op(
                "orbit_dim_partition",
                lambda a=a: orbits.orbit_dim_partition(a),
                lambda v, w=O.nilpotent_orbit_dim(lam): v == w,
            )
        )
    return ops


def _check_poset(n, got_n, nodes, covers) -> bool:
    """p(n) distinct nodes; covers equal Brylawski's set, respect dominance and raise the dimension."""
    nodes = [tuple(x) for x in nodes]
    covers = [tuple(c) for c in covers]
    if got_n != n or len(nodes) != O.partition_count(n) or len(set(nodes)) != len(nodes):
        return False
    if any(sum(x) != n or list(x) != sorted(x, reverse=True) for x in nodes):
        return False
    dims = [O.nilpotent_orbit_dim(x) for x in nodes]
    for lo, hi in covers:
        if not O.dominates(nodes[lo], nodes[hi]) or dims[lo] >= dims[hi]:
            return False
    return len(covers) == len(set(covers)) and set(covers) == O.dominance_covers(n, nodes)


class NilpotentPoset(Workload):
    name = "nilpotent_poset"

    def warm_ops(self) -> list[Op]:
        return _poset_ops(random.Random("warm-up"), (6,), (6, 8), (6, 8))

    def make_pass(self, rng) -> list[Op]:
        ops = _poset_ops(rng, range(10, 17), range(6, 21), (8, 11, 14, 17, 20))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli_calls: one `python -m lieorbits.cli` child at a time


@dataclass(slots=True)
class CliResult:
    code: int
    out: str

    def json(self):
        return json.loads(self.out)


def _cli_error(code):
    def check(res: CliResult) -> bool:
        lines = res.out.splitlines()
        if res.code != code or len(lines) != 1:
            return False
        obj = json.loads(lines[0])
        return set(obj) == {"error", "hint"}

    return check


def _cli_contract_error(res: CliResult) -> bool:
    return res.code in (1, 2) and _cli_error(res.code)(res)


class CliCalls(Workload):
    """Untimed runs send each call to a child process; the traced run calls main() in process."""

    name = "cli_calls"

    def __init__(self, root, in_process=False):
        self.root = root
        self.files = os.path.join(root, ".bench_out", "cli")
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def main(self, argv) -> CliResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except Exception:  # an escaping exception is a traceback and exit 1 in a child
                code = 1
        return CliResult(code, buf.getvalue())

    def child(self, argv) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "lieorbits.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return CliResult(proc.returncode, proc.stdout)

    def warm_ops(self) -> list[Op]:
        return self._ops(random.Random("warm-up"), "warm", self.main)

    def make_pass(self, rng) -> list[Op]:
        ops = self._ops(rng, "pass", self.main if self.in_process else self.child)
        rng.shuffle(ops)
        return ops

    def _write(self, tag, name, rows) -> str:
        os.makedirs(self.files, exist_ok=True)
        path = os.path.join(self.files, f"{tag}-{name}.json")
        with open(path, "w") as fh:
            json.dump({"n": len(rows), "entries": [[str(v) for v in row] for row in rows]}, fh)
        return path

    def _ops(self, rng, tag, invoke) -> list[Op]:
        ops: list[Op] = []

        def add(kind, argv, check, defect=None):
            ops.append(Op(kind, lambda: invoke(argv), check, defect=defect))

        def typed(check):
            return lambda res: res.code == 0 and check(res.json())

        fam, r = rng.choice((("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)))
        tr = ["--type", fam, "--rank", str(r)]
        nroots = O.num_roots(fam, r)
        add("roots", ["roots", *tr], typed(lambda d: len(d["roots"]) == nroots and d["cartan"] == _lists(O.cartan(fam, r))))
        add(
            "maxroot",
            ["maxroot", *tr],
            typed(lambda d: d["height"] == sum(d["theta"]) == O.coxeter_number(fam, r) - 1),
        )
        subset = frozenset(i for i in range(1, r + 1) if rng.random() < 0.5)
        levi = O.levi_root_count(fam, r, subset)
        argv = ["parabolic", *tr] + (["--subset", ",".join(map(str, sorted(subset)))] if subset else [])
        add(
            "parabolic",
            argv,
            typed(
                lambda d: d["subset"] == sorted(subset)
                and (d["dim_l"], d["dim_u"]) == (r + levi, nroots // 2 - levi // 2)
                and d["dim_p"] == d["dim_l"] + d["dim_u"]
            ),
        )
        add("w0", ["w0", *tr], typed(lambda d: O.walk_is_longest(fam, r, d["word"]) and d["length"] == nroots // 2))
        add(
            "triple",
            ["triple", *tr],
            typed(
                lambda d: all(
                    sum(O.cartan(fam, r)[i][j] * Fraction(c) for j, c in enumerate(d["h_coroot_coords"])) == 2
                    for i in range(r)
                )
            ),
        )
        dims = [2 * m + 1 for m in O.exponents(fam, r)]
        add("poincare", ["poincare", *tr], typed(lambda d: d["dims"] == dims and d["poly"] == list(O.poly_of_dims(dims))))
        add(
            "minorbit",
            ["minorbit", *tr],
            typed(lambda d: d["dim_Omin"] == 2 * O.dual_coxeter_number(fam, r) - 2 == d["dim_P_Omin"] + 1),
        )
        h, pi, _ = _torus(rng, fam, r, inside=True)
        sigma = O.minus_w0(fam, r)
        orbit = nroots - O.levi_root_count(fam, r, pi)
        want = {
            "in_D": True,
            "Pi_h": sorted(pi),
            "orbit_dim": orbit,
            "regular": not pi,
            "dims": [orbit, O.dim_u(fam, r, pi), O.dim_u(fam, r, frozenset(sigma[i] for i in pi))],
        }
        add("ssorbit", ["ssorbit", *tr, "--h", ",".join(_gauss(c) for c in h.coords)], typed(lambda d: d == want))

        n = rng.randint(2, 4)
        case = _jordan_case(rng, n, rng.choice(("mixed", "nilpotent")) if n > 2 else "nilpotent")
        other = _jordan_case(rng, n, "mixed" if n > 2 else "semisimple")
        mx = self._write(tag, "x", case.conj(case.j))
        my = self._write(tag, "y", JordanCase(other.blocks, case.moves).conj(other.j))
        kill = 2 * n * O.trace(O.mat_mul(case.j, other.j))
        add("killing", ["killing", "--matrix", mx, "--other", my], typed(lambda d: Fraction(d["value"]) == kill))
        ws, wn = case.conj(case.d), case.conj(case.nil)
        add(
            "jordan",
            ["jordan", "--matrix", mx],
            typed(
                lambda d: _frac_rows(d["semisimple"]["entries"]) == ws and _frac_rows(d["nilpotent"]["entries"]) == wn
            ),
        )
        p = O.poly_from_roots(case.eigenvalues())
        phi = [p[n - k] for k in range(2, n + 1)]
        add("phi", ["phi", "--matrix", mx], typed(lambda d: [Fraction(c) for c in d["coeffs"]] == phi))
        od = case.orbit_dim()
        add(
            "orbit-dim",
            ["orbit-dim", "--matrix", mx],
            typed(lambda d: (d["orbit_dim"], d["centralizer_dim"]) == (od, n * n - 1 - od)),
        )
        conjugate = rng.random() < 0.5
        twin = JordanCase(case.blocks if conjugate else _other_type(case), _moves(rng, n))
        mz = self._write(tag, "z", twin.conj(twin.j))
        add("same-orbit", ["same-orbit", "--matrix", mx, "--other", mz], typed(lambda d: d == {"same_orbit": conjugate}))
        nil = _jordan_case(rng, rng.randint(2, 4), "nilpotent")
        mn = self._write(tag, "nil", nil.conj(nil.j))
        h_norm = sum((s - 1 - 2 * i) ** 2 for _, s in nil.blocks for i in range(s))
        add(
            "jm",
            ["jm", "--matrix", mn],
            typed(
                lambda d: _check_triple(
                    *(_frac_rows(d[k]["entries"]) for k in ("x", "h", "y")), nil.conj(nil.j), h_norm
                )
            ),
        )
        pn = rng.randint(4, 7)
        add("poset", ["poset", "--n", str(pn)], typed(lambda d: _check_poset_json(d, pn)))
        cn = rng.randint(4, 8)
        lam, mu = O.random_partition(rng, cn), O.random_partition(rng, cn)
        add(
            "closure",
            ["closure", "--n", str(cn), "--lower", _csv(lam), "--upper", _csv(mu)],
            typed(lambda d: d["n"] == cn and d["dominance"] is d["rank_oracle"] is O.dominates(lam, mu)),
        )

        # documented error classes: usage errors exit 2, domain errors exit 1
        add("usage.bad_flag", ["roots", *tr, "--bogus"], _cli_error(2))
        add("usage.missing_file", ["phi", "--matrix", os.path.join(self.files, "missing.json")], _cli_error(2))
        bad = os.path.join(self.files, f"{tag}-malformed.json")
        os.makedirs(self.files, exist_ok=True)
        with open(bad, "w") as fh:
            fh.write('{"n": 2, "entries": [["1", "0"]]}')
        add("usage.malformed_matrix", ["orbit-dim", "--matrix", bad], _cli_error(2))
        add("usage.bad_torus", ["ssorbit", *tr, "--h", "1/0" + ",0" * (r - 1)], _cli_error(2))
        add("domain.bad_rank", ["w0", "--type", "E", "--rank", str(rng.choice((5, 9)))], _cli_error(1))
        irr = self._write(tag, "irr", [[0, 2, 0], [1, 0, 0], [0, 0, 0]])
        add("domain.jm_not_nilpotent", ["jm", "--matrix", irr], _cli_error(1))
        add("domain.irrational", ["same-orbit", "--matrix", irr, "--other", irr], _cli_error(1))
        # known contract defects: both must become one JSON line with exit 1 or 2
        add(
            "defect.subset_out_of_range",
            ["parabolic", *tr, "--subset", str(r + rng.randint(1, 5))],
            _cli_contract_error,
            defect="parabolic --subset with an out-of-range index prints a traceback",
        )
        add(
            "defect.closure_n_mismatch",
            ["closure", "--n", str(cn + 1), "--lower", _csv(lam), "--upper", _csv(mu)],
            _cli_contract_error,
            defect="closure accepts an --n that disagrees with the partitions and exits 0",
        )
        return ops


def _lists(rows):
    return [list(row) for row in rows]


def _csv(parts):
    return ",".join(map(str, parts))


def _gauss(c) -> str:
    if c.im == 0:
        return str(c.re)
    sign = "+" if c.im > 0 else "-"
    return f"{c.re}{sign}{abs(c.im)} i"


def _check_poset_json(d, n) -> bool:
    nodes = [v["parts"] for v in d["nodes"]]
    dims_ok = all(v["dim"] == O.nilpotent_orbit_dim(v["parts"]) for v in d["nodes"])
    return dims_ok and _check_poset(n, d["n"], nodes, d["covers"])


# ---------------------------------------------------------------------------


def warm_pass(ops) -> None:
    """Run ops once, unchecked: the warm-up pass before timing."""
    for op in ops:
        try:
            op.call()
        except Exception:  # error-path ops raise by design
            pass


def make(name: str, root: str, in_process_cli: bool = False):
    if name == "cli_calls":
        return CliCalls(root, in_process=in_process_cli)
    return {"weyl_parabolic": WeylParabolic, "matrix_algebra": MatrixAlgebra, "nilpotent_poset": NilpotentPoset}[
        name
    ]()
