"""The Lie algebra of traceless n-by-n matrices over exact rationals.

Provides the bracket, the Killing form (2n times the trace form), the adjoint
operator in a fixed basis, centralizer and orbit dimensions, semisimplicity
and nilpotency tests, the Jordan decomposition, characteristic-polynomial
invariants, a conjugacy test for rational spectra, and the orbit symplectic
pairing.  All arithmetic is exact, with no floating-point mode.  An
element carries its integer form X = d*x, d the lcm of its denominators: the
operations compute on it in ints, in Z[t] from the characteristic polynomial
on, and build each Fraction of a result once, with its form.

The fixed basis is: the elementary matrices E_ij with i != j in row-major
order, followed by the n-1 consecutive diagonal differences E_ii - E_(i+1)(i+1).

The adjoint operator is a closed form in the integer form X = d*x, written
straight into coordinates: [X, E_ij] is column i of X placed in column j
minus row j of X placed in row i, and [X, E_ii - E_(i+1)(i+1)] is the
difference of two such images.  The orbit pairing reads its Gram matrix off
the same columns through the trace form.  Centralizer and orbit dimensions
and the traces of powers of ad(x) never build ad(x): they are closed forms
in the degrees of the invariant factors of x and in the traces of powers of x.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub

from . import linalg
from .linalg import Matrix, Poly


class IrrationalSpectrumError(ValueError):
    """Raised when an operation needs rational eigenvalues and they are not."""

    hint = "conjugacy testing supports rational eigenvalues only"


class SlnElement(namedtuple("SlnElement", "n entries")):
    """An n-by-n matrix of exact rationals with zero trace, entries a tuple of row tuples."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace goes through _make

    def __new__(cls, n: int, entries):
        if type(n) is not int:  # bool too: True would pass as n = 1 and print as True
            raise TypeError(f"n {n!r} is a {type(n).__name__}; give an int")
        if n < 1:
            raise ValueError("n must be at least 1")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form an {n}x{n} matrix")
        if type(entries) is not _Entries:  # else checked when built
            entries = _Entries(map(tuple, entries))
            for v in chain.from_iterable(entries):
                if type(v) is not Fraction and type(v) is not int:  # bools and floats have ratios
                    raise TypeError(f"{v!r} is a {type(v).__name__}; give an exact int or Fraction")
            ratios = [[v.as_integer_ratio() for v in row] for row in entries]
            d = math.lcm(*{q for row in ratios for _, q in row})
            a = tuple([tuple([p * (d // q) for p, q in row]) for row in ratios])
            if tr := sum([row[i] for i, row in enumerate(a)]):
                raise ValueError(f"trace must be zero, got {_text(Fraction(tr, d))}")
            entries.scaled = (d, a)
        return tuple.__new__(cls, (n, entries))

    @classmethod
    def from_rows(cls, rows) -> "SlnElement":
        entries = [[x if type(x) is Fraction else linalg.frac(x) for x in row] for row in rows]
        return cls(len(entries), entries)

    @classmethod
    def zero(cls, n: int) -> "SlnElement":
        return cls.from_rows([[0] * n for _ in range(n)])

    def to_matrix(self) -> Matrix:
        return [list(row) for row in self.entries]

    def is_zero(self) -> bool:
        return not any(map(any, self.entries.scaled[1]))

    def __add__(self, other: "SlnElement") -> "SlnElement":
        d, (a, b) = _scaled(self, other)
        return _from_ints([list(map(add, r, s)) for r, s in zip(a, b)], d)

    def __sub__(self, other: "SlnElement") -> "SlnElement":
        d, (a, b) = _scaled(self, other)
        return _from_ints([list(map(sub, r, s)) for r, s in zip(a, b)], d)

    def __rmul__(self, scalar) -> "SlnElement":
        s = linalg.frac(scalar)
        d, a = self.entries.scaled
        return _from_ints([[s.numerator * v for v in row] for row in a], d * s.denominator)

    __mul__ = __rmul__  # scalars commute; tuple repetition must not show through

    def __neg__(self) -> "SlnElement":
        return self * -1


class _Entries(tuple):
    """Row tuples with their integer form scaled = (d, d*rows) in row tuples, d > 0 prime to its content."""


def _text(v) -> str:
    """str(v) in full: CPython's int-string limit (since 3.11 and 3.10.7) bounds inputs, not results or messages."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit to lift
    if not limit:
        return str(v)
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


class JordanPair(namedtuple("JordanPair", "semisimple_part nilpotent_part semisimple_witness nilpotent_witness")):
    """Semisimple plus nilpotent split of an element, with polynomial witnesses.

    Both parts are polynomials in the input; the stored witness coefficient
    tuples (lowest degree first) evaluate on the input to the respective part.
    """

    __slots__ = ()


def _from_ints(m: list[list[int]], den: int) -> SlnElement:
    """The element m/den of a square integer m, den > 0, its form in lowest terms; a nonzero trace is a bug."""
    if sum([row[i] for i, row in enumerate(m)]):
        raise RuntimeError("an integer result has a nonzero trace; this is a bug")
    if (g := math.gcd(den, *chain.from_iterable(m))) > 1:
        den, m = den // g, [[v // g for v in row] for row in m]
    zero = Fraction(0)
    entries = _Entries([tuple([Fraction(v, den) if v else zero for v in row]) for row in m])
    entries.scaled = (den, tuple(map(tuple, m)))
    return tuple.__new__(SlnElement, (len(m), entries))


def _scaled(x: SlnElement, y: SlnElement):
    """(d, [d*x, d*y]) for d the lcm of the two forms' d: one multiply a side."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    forms = x.entries.scaled, y.entries.scaled
    d = math.lcm(forms[0][0], forms[1][0])
    return d, [a if e == d else [[v * (d // e) for v in row] for row in a] for e, a in forms]


def bracket(x: SlnElement, y: SlnElement) -> SlnElement:
    """The commutator xy - yx: (XY - YX)/d^2 for X, Y = d*(x, y)."""
    n = x.n
    d, (a, b) = _scaled(x, y)
    ab, ba = linalg._int_mul(a, b, n), linalg._int_mul(b, a, n)
    return _from_ints([list(map(sub, r, s)) for r, s in zip(ab, ba)], d * d)


def killing(x: SlnElement, y: SlnElement) -> Fraction:
    """The invariant form 2n * trace(xy): 2n * sum_ij X_ij Y_ji / d^2 for X, Y = d*(x, y)."""
    d, (a, b) = _scaled(x, y)
    return Fraction(2 * x.n * sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b)))), d * d)


def _ad_columns(x: SlnElement) -> list[list[int]]:
    """Column b of ad(X), X = d*x, over the fixed basis: the coordinates of [X, b], in ints.

    A traceless m has coordinates m_kl, k != l, row-major (E_kl is number
    k(n-1) + l - [l > k]), then the partial sums of its diagonal.  [X, E_ij]
    is column i of X in column j minus row j of X in row i, with diagonal
    partial sums X_ji([j <= k] - [i <= k]), zero for i = j; the image of
    E_mm - E_(m+1)(m+1) is the difference of two such images.
    """
    n, a = x.n, x.entries.scaled[1]
    w = n - 1
    images = []  # [X, E_ij] for every i, j, row-major
    for i in range(n):
        for j in range(n):
            col = [0] * (n * n - 1)
            col[i * w : i * w + w] = [-v for l, v in enumerate(a[j]) if l != i]
            for k in range(n):
                if k != j:
                    col[k * w + j - (j > k)] += a[k][i]
            col[n * w + min(i, j) : n * w + max(i, j)] = [a[j][i] if j < i else -a[j][i]] * abs(i - j)
            images.append(col)
    cols = [images[i * n + j] for i in range(n) for j in range(n) if i != j]
    return cols + [list(map(sub, images[m * (n + 1)], images[m * (n + 1) + n + 1])) for m in range(w)]


def ad_matrix(x: SlnElement) -> Matrix:
    """The matrix of y -> [x, y] over the fixed basis; (n^2-1) square: ad(X)/d for X = d*x."""
    d, zero = x.entries.scaled[0], Fraction(0)
    return [[Fraction(v, d) if v else zero for v in row] for row in zip(*_ad_columns(x))]


def centralizer_dim(x: SlnElement) -> int:
    """Dimension of the commutant {y : [x,y] = 0}, from the invariant factors of X = d*x.

    With g_1, g_2, ... those of X, largest first, the centralizer of X and x
    in gl_n has dimension sum_(i,j) deg gcd(g_i, g_j) = sum_i (2i-1) deg g_i
    (Frobenius); the scalars leave one dimension.
    """
    factors = linalg.invariant_factors(x.entries.scaled[1])
    return sum((2 * i + 1) * linalg.poly_deg(g) for i, g in enumerate(reversed(factors))) - 1


def orbit_dim(x: SlnElement) -> int:
    """Dimension of the conjugacy orbit: dim(g) minus the centralizer."""
    return (x.n * x.n - 1) - centralizer_dim(x)


def is_nilpotent(x: SlnElement) -> bool:
    """Nilpotent iff the characteristic polynomial is t^n, as that of X = d*x is, in ints."""
    return not any(linalg._int_charpoly(x.entries.scaled[1])[0][:-1])


def is_semisimple(x: SlnElement) -> bool:
    """Diagonalizable iff the squarefree part Q of the charpoly P of X = d*x kills X (P does, by Cayley-Hamilton)."""
    a = x.entries.scaled[1]
    p = linalg._int_charpoly(a)[0]
    q = linalg._int_squarefree(p)
    return len(q) == len(p) or linalg.mat_is_zero(linalg.poly_eval_matrix(q, a))


def jordan_chevalley(x: SlnElement) -> JordanPair:
    """Split x into commuting semisimple and nilpotent parts, exactly.

    Newton iteration on the squarefree part Q of the characteristic
    polynomial P of X = d*x, in the quotient ring Q[T]/(P): from the identity
    polynomial t, iterate r -> N(r) for the Newton map N(t) = t - Q(t)*U(t),
    U the inverse of Q' modulo Q.  U(r) is a unit modulo P, so r = s/den, s
    in Z[t], stops changing exactly when Q(r) = 0, which ceil(log2 n) + 1
    rounds reach as Q(X) is nilpotent.  No round runs when P is squarefree (Q
    = P, r = t) or Q = t (x is nilpotent, r = 0).  Paterson-Stockmeyer on the
    powers of X that charpoly formed gives s(X) in at most one product; the
    parts are s(X)/(d*den) and (den*X - s(X))/(d*den), and the witness is
    s(d*t)/(d*den), as the Newton map commutes with t -> d*t.
    """
    d, a = x.entries.scaled
    p, powers = linalg._int_charpoly(a)
    q = linalg._int_squarefree(p)
    den, s = 1, [0, 1]  # the iterate r = s/den
    if len(q) == 2 < len(p):  # q = t: the one Newton round would give s = 0
        s = []
    elif len(q) < len(p):  # a repeated root
        du, (u,) = linalg._integer_scaled([linalg.poly_xgcd(linalg.poly_deriv(q), q)[1]])
        newton = [du * (k == 1) - c for k, c in enumerate(linalg._int_poly_mul(q, u))]  # du*N = du*t - Q*(du*U)
        for _ in range((x.n - 1).bit_length() + 1):  # ceil(log2 n) + 1
            step = linalg._int_compose_mod(newton, du, s, den, p)
            if step == (den, s):
                break
            den, s = step
    if linalg.poly_compose_mod([c * den ** (len(q) - 1 - k) for k, c in enumerate(q)], s, p):  # den^m Q(r)
        raise RuntimeError("Newton iteration failed to converge; this is a bug")
    _, xs = linalg._int_poly_eval_matrix(s, 1, powers)
    xn = [[den * v - w for v, w in zip(ra, rs)] for ra, rs in zip(a, xs)]
    sigma = [Fraction(c * d**k, d * den) for k, c in enumerate(s)]
    return JordanPair(
        semisimple_part=_from_ints(xs, d * den),
        nilpotent_part=_from_ints(xn, d * den),
        semisimple_witness=tuple(sigma),
        nilpotent_witness=tuple(linalg.poly_sub([0, 1], sigma)),
    )


def invariants_phi(x: SlnElement) -> tuple[Fraction, ...]:
    """Characteristic-polynomial coefficients (c_2, ..., c_n) of det(tI - x).

    These generate the conjugation-invariant polynomials, so the vector is
    constant on orbits and vanishes exactly on the nilpotent cone.
    """
    d, a = x.entries.scaled
    p = linalg.charpoly(a)
    n = x.n
    if n >= 2 and p[n - 1] != 0:
        raise RuntimeError("trace coefficient nonzero for a traceless matrix")
    return tuple([Fraction(p[n - k].numerator, d**k) for k in range(2, n + 1)])


def trace_power(x: SlnElement, k: int) -> Fraction:
    """Trace of the k-th power of the adjoint operator of x.

    On gl_n, ad(x) = x (x) 1 - 1 (x) x^T and the scalars lie in its kernel, so
    tr(ad(x)^k) = sum_m (-1)^m C(k,m) tr(x^(k-m)) tr(x^m), with tr(x^0) = n
    and tr(x^m) = tr(X^m)/d^m on the integer powers of X = d*x.
    """
    if type(k) is not int:  # bool too: True would give tr(ad x)
        raise TypeError(f"k {k!r} is a {type(k).__name__}; give an int")
    if k < 1:
        raise ValueError("k must be at least 1")
    d, a = x.entries.scaled
    traces = [Fraction(x.n)]
    for m, power in enumerate(linalg._int_powers(a, k), start=1):
        traces.append(Fraction(sum([power[i][i] for i in range(x.n)]), d**m))
    return sum(((-1) ** m * math.comb(k, m) * traces[k - m] * traces[m] for m in range(k + 1)), Fraction(0))


def rational_eigenvalues(x: SlnElement) -> dict[Fraction, int]:
    """Eigenvalues with multiplicity; raises unless the spectrum is rational."""
    d, a = x.entries.scaled
    return {mu / d: mult for mu, mult in _spectrum(linalg._int_charpoly(a)[0]).items()}


def _spectrum(p: Poly) -> dict[Fraction, int]:
    """The roots of the characteristic polynomial p with multiplicity; raises unless all are rational."""
    roots, rest = linalg.rational_roots(p)
    if linalg.poly_deg(rest) > 0:
        raise IrrationalSpectrumError(
            "matrix has irrational eigenvalues; conjugacy testing supports rational spectra only"
        )
    return dict(roots)


def _rank_sequence(a: list[list[int]], mu: int, mult: int):
    """The lazy sequence rank((x - lam I)^k) for k = 1, ..., mult - 1, from a = d*x and the integer mu = d*lam.

    With rank n - mult for every power k >= mult, these ranks fix the sizes
    of the Jordan blocks of x at an eigenvalue lam of multiplicity mult: the
    number of blocks of size at least k is rank^(k-1) - rank^k.  mu is a
    rational root of the monic characteristic polynomial of a, so an integer.
    The powers are those of the primitive base (a - mu I)/g, g the gcd of its
    entries; the k-th power would otherwise carry g^k.
    """
    base = [[v - mu * (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)]
    g = math.gcd(*chain.from_iterable(base)) or 1  # x = lam I is x = 0, a zero base
    return map(linalg.rank, linalg._int_powers([[v // g for v in row] for row in base], mult - 1))


def same_orbit(x: SlnElement, y: SlnElement) -> bool:
    """Conjugacy test via eigenvalues plus rank sequences of (x - lambda I)^k.

    Equality of all such ranks pins the Jordan type at every eigenvalue; for
    traceless matrices conjugacy over the full linear group coincides with
    conjugacy over the special linear group.  On X, Y = d*(x, y), a rational
    spectrum fixes the characteristic polynomial of X, so Y's roots are
    sought only when its polynomial differs, to raise on an irrational one.
    The rank sequences are compared power by power, so the first difference
    ends the test.  An eigenvalue of multiplicity mult is left at the first
    power where both ranks are n - mult, the index of x - lam I on that
    eigenspace: the ranks fall strictly until then and stay there after, so
    every later pair is equal.
    """
    a, b = _scaled(x, y)[1]
    p = linalg._int_charpoly(a)[0]
    ex = _spectrum(p)
    if (py := linalg._int_charpoly(b)[0]) != p:
        _spectrum(py)
        return False
    for mu, mult in ex.items():
        for r, s in zip(_rank_sequence(a, int(mu), mult), _rank_sequence(b, int(mu), mult)):
            if r != s:
                return False
            if r == x.n - mult:
                break
    return True


def kks_form(x: SlnElement, y: SlnElement, z: SlnElement) -> Fraction:
    """The orbit symplectic pairing at x: <x, [y, z]>."""
    return killing(x, bracket(y, z))


def kks_matrix(x: SlnElement) -> Matrix:
    """Gram matrix of the pairing at x over the fixed basis.

    <x,[y,z]> = <[x,y],z> = 2n tr([x,y] z): for m = [X,y], X = d*x, it is 2n m_lk/d against E_kl,
    and 2n (2s_k - s_(k-1) - s_(k+1))/d against E_kk - E_(k+1)(k+1), s the diagonal's partial sums.
    """
    n, d, zero = x.n, x.entries.scaled[0], Fraction(0)
    w = n - 1
    swap = [l * w + k - (k > l) for k in range(n) for l in range(n) if k != l]  # E_kl pairs with E_lk
    rows = []
    for col in _ad_columns(x):
        s = [0, *col[n * w :], 0]
        row = [col[t] for t in swap] + [2 * s[k] - s[k - 1] - s[k + 1] for k in range(1, n)]
        rows.append([Fraction(2 * n * v, d) if v else zero for v in row])
    return rows
