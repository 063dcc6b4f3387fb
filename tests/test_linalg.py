import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    mat_vec,
    naive_nullspace,
    naive_rank,
    naive_rref,
    plain_mul,
    plain_poly_compose_mod,
    plain_poly_deriv,
    plain_poly_divmod,
    plain_poly_eval_matrix,
    plain_poly_gcd,
    plain_poly_mul,
    plain_poly_trim,
    plain_rational_roots,
    plain_smith_diagonal,
)
from lieorbits import linalg


def F(*xs):
    return [Fraction(x) for x in xs]


def rand_matrix(rng, nr, nc):
    return [[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(nc)] for _ in range(nr)]


def test_rank_matches_fraction_gauss():
    rng = random.Random(11)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, nr, nc)
        assert linalg.rank(m) == naive_rank(m)
    assert linalg.rank([]) == 0
    assert linalg.rank([[Fraction(0)] * 3]) == 0


def column(v):
    return [[x] for x in v]


def echelon_rref(m):
    # the kept rows of the fraction-free elimination over its last pivot d, sorted by pivot and padded with
    # zero rows: the rref they stand for, and its pivot columns
    e = linalg._Echelon(m)
    kept = sorted(zip(e.pivots, e.rows))
    red = [[Fraction(x, e.d) for x in row] for _, row in kept]
    return red + [[Fraction(0)] * len(row) for row in m[len(kept) :]], [c for c, _ in kept]


def check_elimination(m):
    # rank and the echelon rows against plain Fraction Gauss-Jordan; nullspace, solve and inverse by their
    # defining products
    red, pivots = naive_rref(m)
    assert echelon_rref(m) == (red, pivots)
    assert linalg.rank(m) == len(pivots)
    if not m:
        with pytest.raises(ValueError, match="no rows"):
            linalg.nullspace(m)
        return
    nr, nc = len(m), len(m[0])
    free = [c for c in range(nc) if c not in pivots]
    kernel = linalg.nullspace(m)
    assert len(kernel) == len(free)
    for f, v in zip(free, kernel):
        assert plain_mul(m, column(v)) == [[0]] * nr
        assert [v[c] for c in free] == [int(c == f) for c in free]
    if nr != nc:
        with pytest.raises(ValueError, match="not a square system"):
            linalg.solve(m, [Fraction(1)] * nr)
        with pytest.raises(ValueError, match="not a square system"):
            linalg.inverse(m)
        return
    if len(pivots) < nc:
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.solve(m, [Fraction(1)] * nc)
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.inverse(m)
        return
    b = [Fraction(i - 2, 3) for i in range(nc)]
    assert plain_mul(m, column(linalg.solve(m, b))) == column(b)
    assert plain_mul(m, linalg.inverse(m)) == [[int(i == j) for j in range(nc)] for i in range(nc)]


ELIMINATION_CASES = [
    [],  # empty
    [[], [], []],  # three rows, no columns
    [F(0, 0, 0), F(0, 0, 0)],  # all zero
    [F(1, 2), F(2, 4), F(0, 3), F("1/2", 1), F(-1, 0)],  # tall
    [F(0, 2, 4, 0, 6), F(0, 1, 2, 3, "1/2"), F(0, 0, 0, 5, 5)],  # wide, zero first column
    [F("1/3", "-2/7", 5), F("3/2", 0, "1/9"), F("2/3", "-4/7", 10)],  # Fraction entries, rank 2
    [[1, 2], [3, 4]],  # int entries
    [F(0, 0, 1), F(0, 1, 0), F(1, 0, 0)],  # pivots inserted right to left
]


@pytest.mark.parametrize("m", ELIMINATION_CASES)
def test_elimination_edge_cases_against_plain_gauss_jordan(m):
    check_elimination(m)


def test_elimination_against_plain_gauss_jordan_and_row_order():
    rng = random.Random(29)
    for _ in range(150):
        nr, nc, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
        m = rand_matrix(rng, nr, nc)
        if rng.random() < 0.6:  # through k inner columns the rank is at most k, so rows often depend
            m = plain_mul(rand_matrix(rng, nr, k), rand_matrix(rng, k, nc))
        check_elimination(m)
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert echelon_rref(shuffled) == echelon_rref(m)
    assert linalg.inverse([]) == [] and linalg.solve([], []) == []


@pytest.mark.parametrize(
    "m",
    [
        [F(0, 0, 0), F(0, 0, 0)],  # zero
        [F(2, "1/3"), F(-1, 5)],  # full rank, square
        [F(1, 2, 0, "1/3", 5), F(2, 4, 1, 0, "-1/2")],  # wide
        [F(1, 2), F("1/2", 1), F(0, 3), F(-1, 0)],  # tall
        [F(0, "2/3", 3, 1), F(0, "2/3", 3, 1), F(0, 5, -1, 0), F(0, 5, -1, 0)],  # repeated rows, zero first column
        [[3, 6, -9], [1, 2, -3]],  # int entries, rank 1
    ],
)
def test_echelon_kernel_is_d_times_the_plain_nullspace(m):
    e = linalg._Echelon(m)
    kernel = e.kernel(len(m[0]))
    assert all(type(x) is int for v in kernel for x in v)
    assert kernel == [[e.d * x for x in v] for v in naive_nullspace(m)]


def test_solve_and_inverse_refuse_non_square_systems():
    # a wide, tall or ragged matrix has no inverse and no unique solution, and must not be read as if square
    for a in ([[1, 0]], [[1, 2]], [[1], [0]], [[1, 0], [0]], [[]]):
        with pytest.raises(ValueError, match=rf"not a square system: a {len(a)}x"):
            linalg.solve(a, [1] * len(a))
        with pytest.raises(ValueError, match="not a square system"):
            linalg.inverse(a)
    with pytest.raises(ValueError, match="right-hand side of length 1"):
        linalg.solve(linalg.identity(2), [1])


FLOAT_CALLS = {
    "mat_mul": lambda: linalg.mat_mul([[0.1]], [[1]]),
    "mat_mul integral float": lambda: linalg.mat_mul([[1]], [[Fraction(1, 3), 2.0]]),
    "poly_mul": lambda: linalg.poly_mul([0.1], [1]),
    "poly_divmod": lambda: linalg.poly_divmod([1, 2], [0.5, 1]),
    "charpoly": lambda: linalg.charpoly([[0.25, 0], [0, 1]]),
    "rank": lambda: linalg.rank([[1, 2], [3, 0.1]]),
    "nullspace": lambda: linalg.nullspace([[0.1, 1]]),
    "solve": lambda: linalg.solve([[1, 0], [0, 1]], [1, 0.5]),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS.keys())
def test_kernels_refuse_floats_as_frac_does(call):
    # as_integer_ratio would read 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError, match=r"is a float; give an exact int, string or Fraction"):
        call()


def test_nullspace_vectors_are_killed_and_count_matches():
    rng = random.Random(5)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        basis = linalg.nullspace(m)
        assert len(basis) == nc - linalg.rank(m)
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))


def test_solve_and_inverse():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        if linalg.rank(m) < n:
            with pytest.raises(ValueError):
                linalg.solve(m, [Fraction(0)] * n)
            continue
        b = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        x = linalg.solve(m, b)
        assert mat_vec(m, x) == b
        assert linalg.mat_mul(m, linalg.inverse(m)) == linalg.identity(n)


def det(a):
    # plain fraction Gauss with row swaps; shares no code with linalg.charpoly
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * out


def charpoly_by_minors(m):
    # coefficient of lambda^(n-k) is (-1)^k * (sum of principal k-minors)
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        total = Fraction(0)
        for rows in itertools.combinations(range(n), k):
            sub = [[m[i][j] for j in rows] for i in rows]
            total += det(sub)
        coeffs[n - k] = (-1) ** k * total
    return coeffs


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(sm):
    return [[Fraction(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)]


def charpoly_by_sympy(m):
    coeffs = to_sympy(m).charpoly().all_coeffs()  # highest degree first
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


def test_charpoly_against_principal_minors():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert linalg.charpoly(m) == charpoly_by_minors(m)


def square_matrices(max_n):
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(square_matrices(5))
@example([])
@example([[Fraction(-7, 3)]])
def test_charpoly_against_sympy_and_minors(m):
    p = linalg.charpoly(m)
    assert all(type(c) is Fraction for c in p)
    assert p == charpoly_by_sympy(m) == charpoly_by_minors(m)


def test_charpoly_forms_only_the_powers_up_to_half(monkeypatch):
    # p_k = tr(A^k) for k <= h = ceil(n/2), and p_(h+j) is read from A^h and the transpose of A^j, so
    # A^2, ..., A^h are the only products: ceil(n/2) - 1 of them, none for n <= 2
    int_mul = linalg._int_mul
    calls = []
    monkeypatch.setattr(linalg, "_int_mul", lambda *args: calls.append(args) or int_mul(*args))
    rng = random.Random(25)
    for n in range(11):
        m = rand_matrix(rng, n, n)
        calls.clear()
        p = linalg.charpoly(m)
        assert len(calls) == max(-(-n // 2) - 1, 0)
        assert p == charpoly_by_minors(m)


def test_paterson_stockmeyer_against_plain_horner(monkeypatch):
    # poly_eval_matrix on its own table A, ..., A^s, s = isqrt(m + 1), and _int_poly_eval_matrix on
    # charpoly's table A, ..., A^ceil(n/2) and on tables of other lengths, against plain Horner: the zero
    # polynomial (the nilpotent witness), constants, m = 1, degrees at and around perfect squares, and
    # denominators in the matrix (d > 1) and in the coefficients; floor(m/s) products on a table of s
    int_mul = linalg._int_mul
    calls = []
    monkeypatch.setattr(linalg, "_int_mul", lambda *args: calls.append(args) or int_mul(*args))
    rng = random.Random(27)
    scaled = 0
    for m in (-1, 0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 24, 25, 35, 36, 48, 49, 59, 60):
        for dens in ((1,), (1, 2, 3)):
            n = rng.randint(1, 5)
            a = [[Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
            p = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(m)]
            p += [Fraction(rng.choice((1, -2, 3)), rng.choice(dens))] if m >= 0 else []
            want = plain_poly_eval_matrix(p, a)
            calls.clear()
            assert linalg.poly_eval_matrix(p, a) == want
            s = max(math.isqrt(m + 1), 1)
            assert len(calls) == s - 1 + max(m, 0) // s
            d, ai = linalg._integer_scaled(a)
            dp, (pi,) = linalg._integer_scaled([p])
            scaled += d > 1
            for table in (linalg._int_charpoly(ai)[1], list(linalg._int_powers(ai, rng.randint(1, 9)))):
                calls.clear()
                scale, out = linalg._int_poly_eval_matrix(pi, d, table)
                assert len(calls) == max(m, 0) // len(table)
                assert [[Fraction(v, dp * scale) for v in row] for row in out] == want
    assert scaled >= 10


def test_charpoly_beyond_five_against_sympy():
    # Newton's identities form only A, ..., A^h with h = ceil(n/2): both
    # parities of n, with integer entries and with denominators 2 and 3
    rng = random.Random(29)
    for n in range(6, 11):
        for dens in ((1,), (1, 2, 3)):
            m = [[Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
            assert linalg.charpoly(m) == charpoly_by_sympy(m)


def systems():
    # (m, b): an r-by-c matrix, square about half the time, and a right-hand
    # side with r entries; Fraction entries, or plain ints part of the time
    entries = st.sampled_from([st.fractions(min_value=-6, max_value=6, max_denominator=6), st.integers(-6, 6)])
    shapes = st.integers(1, 6).flatmap(lambda r: st.tuples(st.just(r), st.one_of(st.just(r), st.integers(1, 6))))

    def system(entry, r, c):
        return st.tuples(
            st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r),
            st.lists(entry, min_size=r, max_size=r),
        )

    return st.tuples(entries, shapes).flatmap(lambda es: system(es[0], *es[1]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
@example(([F(0, 0, 0, 0), F(0, 0, 0, 0), F(0, 0, 0, 0)], F(1, 0, 0)))  # all zero
@example(([F(1, 2, 0, "1/3", 5), F(2, 4, 1, 0, "-1/2")], F(1, 2)))  # wide
@example(([F(1, 2), F("1/2", 1), F(0, 3), F(-1, 0), F(4, "5/6")], F(1, 2, 3, 4, 5)))  # tall
@example(([F(1, 2, 3), F(0, 1, "1/2"), F(1, 3, "7/2")], F(1, 1, 2)))  # singular square
@example(([[3]], [1]))  # int input
# J_(4,2)^2, a power of a Jordan 0/1 matrix as closure_leq_rank ranks it
@example(([F(0, 0, 1, 0, 0, 0), F(0, 0, 0, 1, 0, 0)] + [F(0, 0, 0, 0, 0, 0)] * 4, F(1, 0, 0, 0, 0, 0)))
def test_rref_solve_inverse_against_sympy(system):
    m, b = system
    nr, nc = len(m), len(m[0])
    sm = to_sympy(m)
    red, pivots = echelon_rref(m)
    sred, spivots = sm.rref()
    assert (red, pivots) == (from_sympy(sred), list(spivots))
    rank = sm.rank()
    assert linalg.rank(m) == rank
    kernel = linalg.nullspace(m)
    assert len(kernel) == nc - rank
    assert all(type(x) is Fraction for row in red + kernel for x in row)
    if nr != nc:
        return
    if rank < nr:
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.solve(m, b)
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.inverse(m)
        return
    sol, inv = linalg.solve(m, b), linalg.inverse(m)
    assert sol == [row[0] for row in from_sympy(sm.LUsolve(to_sympy([[x] for x in b])))]
    assert inv == from_sympy(sm.inv())
    assert all(type(x) is Fraction for row in [sol] + inv for x in row)


def products():
    # (a, b): r-by-k times k-by-c with r, k, c in 0..5; entries mix ints and
    # Fractions, and the zeros and ones make some rows sparse.  A k-by-0 b is
    # k empty rows; with k = 0, b = [] has no rows to carry a width, so c = 0.
    entry = st.one_of(
        st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=6), st.sampled_from([0, 1])
    )

    def pair(r, k, c):
        c = c if k else 0
        return st.tuples(
            st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r),
            st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k),
        )

    return st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(lambda d: pair(*d))


def jordan_power(parts, k):
    # J_parts^k as 0/1 ints, built by index: ones k places above the diagonal inside each block
    n = sum(parts)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        for i in range(p - k):
            rows[off + i][off + i + k] = 1
        off += p
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(products())
@example((jordan_power((4, 2), 1), jordan_power((4, 2), 2)))  # sparse 0/1 powers, as in closure_leq_rank
@example((jordan_power((3, 3, 1), 2), [[Fraction(1, 2)] * 7] * 7))
@example(([], [[1, 2]]))  # no rows
@example(([[1], [2]], [[]]))  # no columns
@example(([[], [], []], []))  # no inner dimension
@example(([[0, 0], [0, 0]], [[Fraction(3, 4), 1], [2, Fraction(-1, 3)]]))  # zero left factor
def test_mat_mul_and_mat_vec_against_sympy(pair):
    a, b = pair
    r, k, c = len(a), len(b), len(b[0]) if b else 0
    expected = from_sympy(sympy.Matrix(r, k, [sympy.Rational(x) for row in a for x in row]) * to_sympy(b))
    got = linalg.mat_mul(a, b)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)
    if not k:
        assert mat_vec(a, []) == [Fraction(0)] * r
    for j in range(c):
        column = mat_vec(a, [row[j] for row in b])
        assert column == [row[j] for row in expected]
        assert all(type(x) is Fraction for x in column)


def test_poly_divmod_reconstructs():
    rng = random.Random(13)
    for _ in range(60):
        p = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))]
        q = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        q = linalg.poly_trim(q)
        if not q:
            continue
        quo, rem = linalg.poly_divmod(p, q)
        assert linalg.poly_add(linalg.poly_mul(quo, q), rem) == linalg.poly_trim(p)
        assert linalg.poly_deg(rem) < linalg.poly_deg(q) or not rem


def test_frac_refuses_floats():
    assert linalg.frac(3) == linalg.frac("3") == linalg.frac(Fraction(3)) == Fraction(3)
    assert type(linalg.frac(-2)) is Fraction and linalg.frac("-1/2") == Fraction(-1, 2)
    for x in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError):
            linalg.frac(x)


# int coefficients, among them a divisor longer than the dividend, constant
# and monomial divisors and the zero polynomial
POLY_INT_CASES = [
    ([-1, 0, 1], [1, 1]),
    ([2, 4], [3]),
    ([5, 0, 0, 1], [0, 2]),
    ([1, 2], [0, 0, 3]),
    ([6, 5, 1], [2, 1]),
    ([-4, 0, 3, 0, 1], [2, -3, 1]),
    ([], [2, 4]),
    ([4, 2], []),
]


@pytest.mark.parametrize("p,q", POLY_INT_CASES)
def test_poly_routines_give_fractions_on_int_input(p, q):
    calls = [(linalg.poly_xgcd, (p, q))]
    if p:
        check_integer_squarefree_part(p)
    if q:
        calls.append((linalg.poly_divmod, (p, q)))
    for f, args in calls:
        got = f(*args)
        assert got == f(*[F(*a) for a in args]), f.__name__
        polys = got if isinstance(got, tuple) else (got,)
        assert all(type(x) is Fraction for poly in polys for x in poly), (f.__name__, got)


def test_zero_polynomial_gcds_and_a_squarefree_part():
    assert linalg._int_gcd([], []) == []
    assert linalg.poly_xgcd([], []) == ([], [Fraction(1)], [])
    assert linalg._int_squarefree([8, -4, -2, 1]) == [-4, 0, 1]  # (t - 2)^2 (t + 2)
    assert linalg._int_squarefree([-4, 12, -9]) == [2, -3]  # -(3t - 2)^2: primitive, with the sign of its lead


# int and Fraction coefficients, of either sign, degree up to 12; a polynomial
# may end in zeros, and so be the zero polynomial
COEFF = st.one_of(st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=12))
POLY = st.lists(COEFF, max_size=13)
SQUARE = st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=n, max_size=n))


def int_scaled(p):
    # p times the lcm of its denominators, trimmed: an integer list with the same roots
    den = math.lcm(*[Fraction(c).denominator for c in p])
    return [int(Fraction(c) * den) for c in plain_poly_trim(p)]


def check_integer_squarefree_part(p):
    # the squarefree part of the scaling of a nonzero p is primitive, in ints, and a positive multiple of
    # p over the monic gcd(p, p') by Euclid over Q
    got = linalg._int_squarefree(int_scaled(p))
    want = plain_poly_divmod(p, plain_poly_gcd(p, plain_poly_deriv(p)))[0]
    assert [Fraction(c, got[-1]) for c in got] == [c / want[-1] for c in want], p
    assert got[-1] * want[-1] > 0 and math.gcd(*got) == 1 and all(type(c) is int for c in got), p


@settings(derandomize=True, max_examples=200, deadline=None)
@given(POLY, POLY, POLY, SQUARE)
@example([], [], [], [[0]])
@example(F(3, 0, 0, 0, -7, 2), [Fraction(-2, 3), 0, 5], [1, 1], [[1, 2], [3, 4]])  # non-unit lead
@example([1, 2, 3], [0, 0, -5, 0], [Fraction(1, 2)], [[Fraction(1, 3)]])  # negative lead, trailing zero
@example([Fraction(1, 7)] * 13, [-3], [0, 1], [[0, 1], [0, 0]])  # constant divisor
@example([0, 0], [6, -4, 2], [], [[1]])  # zero first argument
@example(F(-3, 1, 3, -1), [], [1], [[1]])  # zero second argument, negative lead
@example([5], F(-1, 0, 1), [1], [[1]])  # constant argument
@example(F(3, -7, 3, 3, -2), F(-3, 1, 2), [2], [[2]])  # -(t - 1)^3 (2t + 3) against (t - 1)(2t + 3)
@example([Fraction(-2, 3), Fraction(4, 9), Fraction(-6, 5)], [Fraction(-5, 3), Fraction(7, 2)], [1], [[0]])  # non-unit leads
def test_poly_kernels_against_the_plain_fraction_oracle(p, q, s, a):
    def fractions_only(*polys):
        return all(type(x) is Fraction for poly in polys for x in poly)

    product = linalg.poly_mul(p, q)
    assert product == plain_poly_mul(p, q) and fractions_only(product)
    # the integer gcd of the scalings, primitive with a positive lead, is the monic gcd times its lead
    common = linalg._int_gcd(int_scaled(p), int_scaled(q))
    assert [Fraction(c, common[-1]) for c in common] == plain_poly_gcd(p, q)
    assert not common or (common[-1] > 0 and math.gcd(*common) == 1 and all(type(c) is int for c in common))
    if plain_poly_trim(p):
        check_integer_squarefree_part(p)
    value = linalg.poly_eval_matrix(p, a)
    assert value == plain_poly_eval_matrix(p, a) and fractions_only(*value)
    if not plain_poly_trim(q):
        with pytest.raises(ZeroDivisionError):
            linalg.poly_divmod(p, q)
        return
    quo, rem = linalg.poly_divmod(p, q)
    assert (quo, rem) == plain_poly_divmod(p, q) and fractions_only(quo, rem)
    back = plain_poly_mul(quo, q) + [Fraction(0)] * len(p)
    assert plain_poly_trim([x + (rem[i] if i < len(rem) else 0) for i, x in enumerate(back)]) == plain_poly_trim(p)
    assert len(rem) < len(plain_poly_trim(q))
    composed = linalg.poly_compose_mod(p, s, q)
    assert composed == plain_poly_compose_mod(p, s, q) and fractions_only(composed)


def test_poly_gcd_divides_every_remainder_by_its_content(monkeypatch):
    # plain pseudo-remainders give the same gcd with coefficients that grow
    # with every step; each divisor after the first must be primitive
    divisors = []
    int_divmod = linalg._int_divmod

    def recording(p, q):
        divisors.append(q)
        return int_divmod(p, q)

    monkeypatch.setattr(linalg, "_int_divmod", recording)
    p = plain_poly_mul(plain_poly_mul(F(-1, 3, -3, 1), F(3, 2)), F(-5, 3, 0, 0, 1))  # (t - 1)^3 (2t + 3)(t^4 + 3t - 5)
    assert linalg._int_gcd(int_scaled(p), int_scaled(linalg.poly_deriv(p))) == [1, -2, 1]
    assert len(divisors) > 3 and all(math.gcd(*q) == 1 for q in divisors[1:])


def test_gcd_and_xgcd():
    rng = random.Random(17)
    for _ in range(40):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        a, b = linalg.poly_trim(a), linalg.poly_trim(b)
        if not a and not b:
            continue
        g, u, v = linalg.poly_xgcd(a, b)
        assert g == plain_poly_gcd(a, b)
        assert linalg.poly_add(linalg.poly_mul(u, a), linalg.poly_mul(v, b)) == g
        if g:
            assert not linalg.poly_divmod(a, g)[1] and not linalg.poly_divmod(b, g)[1]


def test_rational_roots_recovers_constructed_spectrum():
    rng = random.Random(23)
    for _ in range(50):
        roots = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rng.randint(1, 4))]
        p = [Fraction(1)]
        for r in roots:
            p = linalg.poly_mul(p, [-r, Fraction(1)])
        found, rest = linalg.rational_roots(p)
        assert not linalg.poly_deg(rest)
        flat = sorted(r for r, m in found for _ in range(m))
        assert flat == sorted(roots)
    # x^2 - 2 has no rational roots
    found, rest = linalg.rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert found == [] and linalg.poly_deg(rest) == 2


def polys_with_rational_roots():
    # (roots, cofactor, scale): p = scale * prod(t - r) * cofactor
    root = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return st.tuples(st.lists(root, max_size=5), st.lists(coeff, max_size=4), coeff.filter(bool))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys_with_rational_roots())
@example(([Fraction(10**12), Fraction(-(10**12))], [], Fraction(1)))  # t^2 - 10^24
@example(([Fraction(10**12, 7)] * 2, F(-2, 0, 1), Fraction(-3, 5)))
@example(([], [Fraction(0)], Fraction(1)))  # the zero polynomial
def test_rational_roots_against_sympy(case):
    roots, cofactor, scale = case
    p = [scale]
    for r in roots:
        p = linalg.poly_mul(p, [-r, Fraction(1)])
    p = linalg.poly_mul(p, linalg.poly_trim(cofactor)) if cofactor else p
    if not p:
        with pytest.raises(ValueError):
            linalg.rational_roots(p)
        with pytest.raises(ValueError):
            plain_rational_roots(p)
        return
    found, rest = linalg.rational_roots(p)
    assert (found, rest) == plain_rational_roots(p)  # the same roots in the same order, and the same cofactor
    t = sympy.Symbol("t")
    expected = sympy.Poly.from_list([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], t, domain="QQ")
    assert dict(found) == {Fraction(int(r.p), int(r.q)): m for r, m in expected.ground_roots().items()}
    assert len(found) == len(dict(found))
    back = rest
    for r, m in found:
        for _ in range(m):
            back = linalg.poly_mul(back, [-r, Fraction(1)])
    assert back == p


def monic_transform(p):
    # P(y) = a_n^(n-1) p(y/a_n) for p scaled to integers a_n t^n + ... + a_0 with its zero roots stripped
    ip = int_scaled(p)
    ip = ip[next(i for i, c in enumerate(ip) if c) :]
    n, lead = len(ip) - 1, ip[-1]
    return [c * lead ** (n - 1 - i) for i, c in enumerate(ip[:-1])] + [1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys_with_rational_roots())
@example(([Fraction(10**12), Fraction(-(10**12))], [], Fraction(1)))  # t^2 - 10^24
@example(([Fraction(10**12, 7)] * 2, [], Fraction(1)))  # (t - 10^12/7)^2
@example(([], F(-3, -1, 1), Fraction(1)))  # t^2 - t - 3: its root (1 + sqrt 13)/2 lies above half the bound, 4
@example(([Fraction(-5, 2)], F(1, 0, 0, 0, 0, -1), Fraction(-4, 3)))  # negative, non-unit lead
def test_root_bound_encloses_every_real_root(case):
    # the bisection starts from the root bound B of the squarefree part S of the monic transform, so it
    # finds the unit interval (y - 1, y] of each real root of S only if every root lies inside (-B, B]
    roots, cofactor, scale = case
    p = [scale]
    for r in roots:
        p = plain_poly_mul(p, [-r, Fraction(1)])
    p = plain_poly_mul(p, plain_poly_trim(cofactor)) if plain_poly_trim(cofactor) else p
    if not any(plain_poly_trim(p)[:-1]):
        return  # zero, a constant or a monomial: no root but zero, and no bisection
    t = sympy.Symbol("t")
    s = sympy.Poly(list(reversed(monic_transform(p))), t, domain="ZZ").sqf_part()
    squarefree = [int(c) for c in reversed(s.all_coeffs())]
    expected = sorted({int(sympy.ceiling(z)) for z in sympy.real_roots(s)})
    assert sorted(linalg._unit_intervals_with_roots(squarefree)) == expected


SMITH_COEFF = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def nonsingular_poly_matrices(draw):
    # k x k, k <= 4, entries of degree <= 3 with denominators 2 and 3; a linear factor shared by some rows
    # gives invariant factors other than 1 and the determinant
    k = draw(st.integers(1, 4))
    m = [[plain_poly_trim(draw(st.lists(SMITH_COEFF, max_size=3))) for _ in range(k)] for _ in range(k)]
    shared = [draw(SMITH_COEFF), draw(SMITH_COEFF.filter(bool))]
    for r in draw(st.sets(st.integers(0, k - 1))):
        m[r] = [plain_poly_mul(p, shared) for p in m[r]]
    at = [[sum((c * Fraction(7, 5) ** i for i, c in enumerate(p)), Fraction(0)) for p in row] for row in m]
    assume(naive_rank(at) == k)  # nonsingular at t = 7/5, so over Q[t]
    return m


@settings(derandomize=True, max_examples=150, deadline=None)
@given(nonsingular_poly_matrices())
@example([[F(1, -2, 1), []], [[], F(-1, 1)]])  # diag((t - 1)^2, t - 1)
@example([[F(-3, 0, -2), [Fraction(1, 2)]], [F(0, 0, 6), F(1, 0, -4)]])  # negative and non-unit leads
@example([[[Fraction(2, 3), Fraction(-1, 2)], F(0, 2)], [F(0, 4), F(0, 0, 4)]])  # t divides every entry
def test_smith_diagonal_against_the_plain_fraction_oracle(m):
    # each row scaled to ints (a unit of Q[t]); the integer diagonal is primitive with a positive lead, and
    # the monic diagonal of the oracle divided by the lead
    rows = []
    for row in m:
        den = math.lcm(*[c.denominator for p in row for c in p])
        rows.append([[int(c * den) for c in p] for p in row])
    diag = linalg._smith_diagonal(rows)
    assert [[Fraction(c, f[-1]) for c in f] for f in diag] == plain_smith_diagonal(m)
    assert all(f[-1] > 0 and math.gcd(*f) == 1 and all(type(c) is int for c in f) for f in diag)


def test_compose_mod():
    # q(s) mod m computed by composition equals direct expansion reduced mod m
    q = [Fraction(1), Fraction(0), Fraction(1)]  # 1 + t^2
    s = [Fraction(2), Fraction(3)]  # 2 + 3t
    m = [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)]  # t^3 - 1
    direct = linalg.poly_divmod(linalg.poly_add([Fraction(1)], linalg.poly_mul(s, s)), m)[1]
    assert linalg.poly_compose_mod(q, s, m) == direct
