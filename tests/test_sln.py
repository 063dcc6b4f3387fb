"""Tests for the concrete traceless-matrix algebra.

Invariance properties are asserted on the generating invariants (the
characteristic coefficients); since the invariant ring is freely generated
by them, equality on the generators settles equality for every invariant
polynomial.  That reduction is relied on throughout this module.
"""

import math
import pickle
import random
from fractions import Fraction
from itertools import chain

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from helpers import (
    ad_nullity,
    conjugate,
    mat_vec,
    naive_rank,
    plain_jordan_witness,
    plain_mul,
    plain_poly_deriv,
    plain_poly_eval_matrix,
    plain_poly_gcd,
    rand_jordan_type,
    rand_nilpotent,
    rand_partition,
    rand_rational_spectrum,
    rand_traceless,
    rand_unimodular,
    time_bound,
)
from lieorbits import linalg
from lieorbits.cli import matrix_from_json, matrix_to_json
from lieorbits.orbits import Partition, jordan_matrix, orbit_dim_partition, partitions
from lieorbits.sln import (
    IrrationalSpectrumError,
    SlnElement,
    _rank_sequence,
    _scaled,
    ad_matrix,
    bracket,
    centralizer_dim,
    coords_in_basis,
    invariants_phi,
    is_nilpotent,
    is_semisimple,
    jordan_chevalley,
    killing,
    kks_form,
    kks_matrix,
    orbit_dim,
    rational_eigenvalues,
    same_orbit,
    trace_power,
)
from lieorbits.triples import MatrixTriple, jacobson_morozov_sln, verify_matrix_triple

X = SlnElement.from_rows([[0, 1], [0, 0]])
H = SlnElement.from_rows([[1, 0], [0, -1]])
Y = SlnElement.from_rows([[0, 0], [1, 0]])


def E(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i - 1][j - 1] = 1
    return SlnElement.from_rows(rows)


# Oracles below use their own products and basis; they share no code with the
# fraction-free paths of ad_matrix, kks_matrix, is_nilpotent and same_orbit.


def plain_commutator(a, b):
    ab, ba = plain_mul(a, b), plain_mul(b, a)
    return [[u - v for u, v in zip(r, s)] for r, s in zip(ab, ba)]


def plain_trace_product(a, b):
    return sum((a[i][t] * b[t][i] for i in range(len(a)) for t in range(len(a))), Fraction(0))


def plain_basis(n):
    def unit(*entries):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j, v in entries:
            m[i][j] = Fraction(v)
        return m

    off = [unit((i, j, 1)) for i in range(n) for j in range(n) if i != j]
    return off + [unit((k, k, 1), (k + 1, k + 1, -1)) for k in range(n - 1)]


def rand_fraction_traceless(rng, n):
    rows = [[Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)] for _ in range(n)]
    rows[n - 1][n - 1] -= sum(rows[i][i] for i in range(n))
    return SlnElement.from_rows(rows)


def nilpotent_by_power(x):
    a = x.to_matrix()
    p = a
    for _ in range(x.n - 1):
        p = plain_mul(p, a)
    return all(v == 0 for row in p for v in row)


def same_orbit_by_full_ranks(x, y):
    # sympy eigenvalues, then rank((x - lambda)^k) for every k = 1..n
    n = x.n
    sx, sy = (sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in z.entries]) for z in (x, y))
    ex, ey = sx.eigenvals(), sy.eigenvals()
    if ex != ey:
        return False
    for lam in ex:
        a, b = sx - lam * sympy.eye(n), sy - lam * sympy.eye(n)
        if any((a**k).rank() != (b**k).rank() for k in range(1, n + 1)):
            return False
    return True


def test_element_refuses_entries_that_are_not_int_or_fraction():
    # from_rows coerces through frac; a direct call keeps its entries, and a float among them would fail
    # only at the first operation, inside linalg
    with pytest.raises(TypeError, match=r"^0.5 is a float; give an exact int or Fraction$"):
        SlnElement(2, ((0.5, 0), (0, -0.5)))
    with pytest.raises(TypeError, match="is a bool"):
        SlnElement(2, ((True, 0), (0, -1)))
    with pytest.raises(TypeError, match="is a str"):
        SlnElement(1, (("0",),))
    with pytest.raises(TypeError, match="is a float"):
        SlnElement.from_rows([[0.5, 0], [0, -0.5]])
    assert SlnElement(2, ((1, Fraction(1, 2)), (0, -1))) == H + SlnElement.from_rows([[0, "1/2"], [0, 0]])


def test_element_validation():
    with pytest.raises(ValueError):
        SlnElement.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SlnElement.from_rows([[0, 1], [0, 0], [0, 0]])
    with pytest.raises(ValueError):
        bracket(X, SlnElement.zero(3))
    with pytest.raises(TypeError):  # 0.1 would enter as 3602879701896397/36028797018963968
        SlnElement.from_rows([[0.1, 0], [0, -0.1]])


def test_list_rows_are_stored_as_row_tuples():
    x = SlnElement(2, [[0, 1], [0, 0]])
    assert all(type(row) is tuple for row in x.entries)
    assert x == X and hash(x) == hash(X)
    assert bracket(H, x) == 2 * X and bracket(x, H) == -2 * X
    assert killing(x, Y) == 4 and same_orbit(x, X) and x - X == SlnElement.zero(2)


def plain_form(entries):
    # (d, d * entries) for d the lcm of the denominators, by Fraction arithmetic alone
    d = math.lcm(*[Fraction(v).denominator for row in entries for v in row])
    return d, [[int(Fraction(v) * d) for v in row] for row in entries]


def assert_form(z, want):
    # z's integer form is normalized, equals the plain one of the oracle rows want, and survives == and pickle
    d, a = z.entries.scaled
    assert d > 0 and all(type(v) is int for row in a for v in row)
    assert type(a) is tuple and all(type(row) is tuple for row in a)  # no kernel can write the form
    assert math.gcd(d, *chain.from_iterable(a)) == 1
    assert (d, [list(row) for row in a]) == plain_form(want) and z.entries == tuple(map(tuple, want))
    assert all(type(row) is tuple for row in z.entries)
    same = SlnElement.from_rows(want)
    assert same == z and hash(same) == hash(z) and same.entries.scaled == (d, a)
    back = pickle.loads(pickle.dumps(z))
    assert back == z and hash(back) == hash(z) and back.entries.scaled == (d, a)


@st.composite
def traceless_rows(draw, n, nilpotent=False):
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    rows = [[draw(entry) if j > i or not nilpotent else Fraction(0) for j in range(n)] for i in range(n)]
    if not nilpotent:
        rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    return rows


@st.composite
def element_cases(draw):
    n = draw(st.integers(1, 4))
    return n, draw(traceless_rows(n)), draw(traceless_rows(n)), draw(traceless_rows(n, nilpotent=True))


def plain_sum(a, b, sign=1):
    return [[u + sign * v for u, v in zip(r, s)] for r, s in zip(a, b)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(element_cases(), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))
def test_every_element_carries_its_normalized_integer_form(case, c):
    n, xr, yr, er = case
    mixed = [[int(v) if v.denominator == 1 else v for v in row] for row in xr]  # ints among Fractions
    built = [
        SlnElement.from_rows(xr),
        SlnElement(n, xr),
        SlnElement(n, mixed),
        SlnElement(n, tuple(map(tuple, mixed))),
        SlnElement.from_rows(yr)._replace(entries=xr),
        SlnElement._make([n, xr]),
        SlnElement._make(SlnElement.from_rows(xr)),
    ]
    for z in built:
        assert_form(z, xr)
    x, y, e = (SlnElement.from_rows(r) for r in (xr, yr, er))
    assert_form(bracket(x, y), plain_commutator(xr, yr))
    assert_form(x + y, plain_sum(xr, yr))
    assert_form(x - y, plain_sum(xr, yr, -1))
    assert_form(c * x, [[c * v for v in row] for row in xr])
    assert_form(-x, [[-v for v in row] for row in xr])
    assert_form(x - x, [[0] * n for _ in range(n)])
    parts = jordan_chevalley(x)
    assert_form(parts.semisimple_part, plain_sum(xr, parts.nilpotent_part.to_matrix(), -1))
    assert_form(parts.nilpotent_part, plain_sum(xr, parts.semisimple_part.to_matrix(), -1))
    t = jacobson_morozov_sln(e)
    assert_form(t.h, plain_commutator(er, t.y.to_matrix()))
    assert_form(t.y, t.y.to_matrix())
    assert_form(t.x, er)


def test_bracket_examples():
    assert bracket(X, Y).entries == H.entries
    assert bracket(X, X).is_zero()
    assert bracket(E(3, 1, 2), E(3, 2, 3)).entries == E(3, 1, 3).entries


def test_bracket_properties_random():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 4)
        x, y, z = (rand_traceless(rng, n) for _ in range(3))
        assert bracket(x, y).entries == (-bracket(y, x)).entries
        jacobi = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert jacobi.is_zero()
        # invariance of the Killing form
        assert killing(bracket(z, x), y) + killing(x, bracket(z, y)) == 0


def test_killing_examples():
    assert killing(H, H) == 8
    assert killing(X, X) == 0
    assert killing(X, Y) == 4


def test_killing_normalization_oracle():
    # trace(ad_x ad_y) must equal 2n trace(xy), exactly
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 4)
        x, y = rand_traceless(rng, n), rand_traceless(rng, n)
        prod = linalg.mat_mul(ad_matrix(x), ad_matrix(y))
        assert sum(prod[i][i] for i in range(len(prod))) == killing(x, y)


def test_ad_matrix_examples():
    assert ad_matrix(SlnElement.zero(2)) == linalg.zeros(3, 3)
    # fixed basis order (E_12, E_21, diag): ad_H is diagonal with (2, -2, 0)
    assert ad_matrix(H) == [[2, 0, 0], [0, -2, 0], [0, 0, 0]]


def test_ad_matrix_against_brackets():
    rng = random.Random(37)
    for n in range(1, 7):
        basis = plain_basis(n)
        for _ in range(4 if n < 5 else 2):
            x = rand_fraction_traceless(rng, n)
            ad = ad_matrix(x)
            # the old construction: one SlnElement bracket per basis element
            cols = [coords_in_basis(bracket(x, SlnElement.from_rows(b)).to_matrix()) for b in basis]
            assert ad == [[c[i] for c in cols] for i in range(len(cols))]
            # column j expands [x, b_j] over the basis
            for j, bj in enumerate(basis):
                image = [[Fraction(0)] * n for _ in range(n)]
                for coeff, bi in zip((row[j] for row in ad), basis):
                    image = [[u + coeff * v for u, v in zip(r, s)] for r, s in zip(image, bi)]
                assert image == plain_commutator(x.to_matrix(), bj)


def test_kks_matrix_against_trace_form():
    rng = random.Random(39)
    for n in range(1, 6):
        basis = plain_basis(n)
        for _ in range(3 if n < 5 else 1):
            x = rand_fraction_traceless(rng, n)
            gram = []
            for by in basis:
                xy = plain_commutator(x.to_matrix(), by)
                gram.append([2 * n * plain_trace_product(xy, bz) for bz in basis])
            assert kks_matrix(x) == gram


def test_centralizer_and_orbit_dims():
    assert centralizer_dim(SlnElement.zero(3)) == 8
    assert centralizer_dim(X) == 1
    for n in (2, 3, 4, 5):
        reg = SlnElement.from_rows([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        assert centralizer_dim(reg) == n - 1
    assert orbit_dim(SlnElement.zero(4)) == 0
    reg4 = SlnElement.from_rows([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
    assert orbit_dim(reg4) == 12
    assert orbit_dim(E(3, 1, 2)) == 4


def test_orbit_dim_of_strictly_upper_triangular_40x40_is_bounded():
    # unit start vectors split such a matrix into about n Krylov blocks, and
    # the Smith form of their n-square relation matrix did not finish in minutes
    n = 40
    rng = random.Random(1)
    a = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    powers = [a]  # integer products, by sums of products
    while any(map(any, powers[-1])):
        powers.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in powers[-1]])
    # the number of Jordan blocks of size >= k is rank(a^(k-1)) - rank(a^k)
    ranks = [n] + [naive_rank(p) for p in powers]
    at_least = [r - s for r, s in zip(ranks, ranks[1:])] + [0]
    parts = tuple(k for k in range(len(ranks) - 1, 0, -1) for _ in range(at_least[k - 1] - at_least[k]))
    with time_bound(5.0, "orbit_dim at n = 40"):
        dim = orbit_dim(SlnElement.from_rows(a))
    assert dim == orbit_dim_partition(Partition(parts))
    assert sum(parts) == n and len(parts) > 1


def test_centralizer_lower_bound_and_regularity():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(2, 4)
        x = rng.choice((rand_traceless, rand_nilpotent, rand_jordan_type))(rng, n)
        c = centralizer_dim(x)
        assert c >= n - 1
        assert (c == n - 1) == (orbit_dim(x) == (n * n - 1) - (n - 1))


def test_nilpotent_semisimple_tests():
    assert is_nilpotent(X) and not is_semisimple(X)
    assert is_semisimple(H) and not is_nilpotent(H)
    z = SlnElement.zero(2)
    assert is_nilpotent(z) and is_semisimple(z)
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                m = SlnElement.from_rows([[a, b], [c, -a]])
                assert is_nilpotent(m) == (a * a + b * c == 0)


def test_is_semisimple_skips_the_evaluation_when_squarefree(monkeypatch):
    cyclic = SlnElement.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # charpoly t^3 - 1, squarefree

    def refuse(*args):
        raise AssertionError("poly_eval_matrix called")

    monkeypatch.setattr(linalg, "poly_eval_matrix", refuse)
    assert is_semisimple(cyclic)
    with pytest.raises(AssertionError, match="poly_eval_matrix called"):
        is_semisimple(X)  # charpoly t^2: whether t kills x decides


def test_jordan_chevalley_examples():
    jp = jordan_chevalley(X)
    assert jp.semisimple_part.is_zero() and jp.nilpotent_part.entries == X.entries
    jp = jordan_chevalley(H)
    assert jp.semisimple_part.entries == H.entries and jp.nilpotent_part.is_zero()
    x = SlnElement.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    jp = jordan_chevalley(x)
    assert jp.semisimple_part.entries == SlnElement.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -2]]).entries
    assert jp.nilpotent_part.entries == E(3, 1, 2).entries


def test_jordan_chevalley_skips_the_xgcd_when_squarefree(monkeypatch):
    cyclic = SlnElement.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # charpoly t^3 - 1, squarefree
    mixed = SlnElement.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, -2]])  # charpoly (t - 1)^2 (t + 2)
    compose = linalg._int_compose_mod
    calls = []

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(linalg, "_int_compose_mod", counted)
    # one integer composition per Newton round, and one more for the convergence check; X has q = t
    for x, rounds in ((cyclic, 0), (X, 0), (mixed, 2)):
        calls.clear()
        jordan_chevalley(x)
        assert len(calls) == rounds + 1
    expected = jordan_chevalley(cyclic)

    def refuse(*args):
        raise AssertionError("poly_xgcd called")

    monkeypatch.setattr(linalg, "poly_xgcd", refuse)
    assert jordan_chevalley(cyclic) == expected
    assert expected.semisimple_part == cyclic and expected.nilpotent_part.is_zero()
    with pytest.raises(AssertionError, match="poly_xgcd called"):
        jordan_chevalley(mixed)  # q = (t - 1)(t + 2): the Newton map needs the inverse of q'


def test_jordan_chevalley_of_a_nilpotent_needs_no_newton_round(monkeypatch):
    # q = t, so sigma = 0 in closed form: no inverse of q' and no round; n = 1 has p = t squarefree
    def refuse(*args):
        raise AssertionError("poly_xgcd called")

    monkeypatch.setattr(linalg, "poly_xgcd", refuse)
    rng = random.Random(27)
    cases = [X, SlnElement.zero(2), SlnElement.zero(5)] + [rand_nilpotent(rng, n) for n in range(2, 13)]
    for x in cases:
        jp = jordan_chevalley(x)
        assert jp.semisimple_part == SlnElement.zero(x.n) and jp.nilpotent_part == x
        assert jp.semisimple_witness == () and jp.nilpotent_witness == (0, 1)
        assert all(type(c) is Fraction for c in jp.nilpotent_witness)


def test_jordan_chevalley_makes_at_most_one_product_past_charpoly(monkeypatch):
    # charpoly forms A^2, ..., A^h, h = ceil(n/2), and the witness sigma, of degree m < 2h, is evaluated
    # as B_0 + B_1 A^h on that table: one product more where Horner made m
    x = rand_jordan_type(random.Random(40), 40)
    int_mul = linalg._int_mul
    calls = []
    monkeypatch.setattr(linalg, "_int_mul", lambda *args: calls.append(args) or int_mul(*args))
    jp = jordan_chevalley(x)
    h, m = 20, len(jp.semisimple_witness) - 1
    assert m == 39 and len(calls) == (h - 1) + 1
    calls.clear()
    jordan_chevalley(rand_traceless(random.Random(40), 9))  # p squarefree, sigma = t: no product past charpoly
    assert len(calls) == 5 - 1


def test_jordan_chevalley_witness_is_the_two_composition_round():
    # the one Newton map N(t) = t - q(t)u(t) gives the witness of s -> s - q(s)u(s) mod p, with q(s) and
    # u(s) composed apart, on inputs whose characteristic polynomial p has a repeated root (p itself is
    # checked against sympy in test_linalg)
    rng = random.Random(24)
    cases = [rand_jordan_type(rng, n) for n in range(2, 9) for _ in range(9)] + [rand_jordan_type(rng, 16)]
    charpolys = [(x, linalg.charpoly(x.to_matrix())) for x in cases]
    charpolys = [(x, p) for x, p in charpolys if len(plain_poly_gcd(p, plain_poly_deriv(p))) > 1]
    assert len(charpolys) >= 60 and charpolys[-1][0].n == 16
    for x, p in charpolys:
        assert jordan_chevalley(x).semisimple_witness == tuple(plain_jordan_witness(p)), x


def readme_dense_40x40() -> SlnElement:
    """The random traceless 40x40 of the README: entries -3..3, seed 1."""
    n = 40
    rng = random.Random(1)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    return SlnElement.from_rows(rows)


def test_jordan_chevalley_of_a_dense_40x40_is_bounded():
    # the squarefree part and the Newton round divide degree-40 polynomials,
    # whose integer coefficients a careless fraction-free division would let grow
    x = readme_dense_40x40()
    with time_bound(10.0, "jordan_chevalley at n = 40"):
        jp = jordan_chevalley(x)
    xs, xn = jp.semisimple_part.to_matrix(), jp.nilpotent_part.to_matrix()
    assert [[u + v for u, v in zip(r, s)] for r, s in zip(xs, xn)] == x.to_matrix()
    assert plain_mul(xs, xn) == plain_mul(xn, xs)


def test_polynomial_calls_on_the_dense_40x40_are_bounded():
    # charpoly, the gcd with p' and the Sturm chain of a degree-40 polynomial
    # whose roots are irrational
    x = readme_dense_40x40()
    with time_bound(2.0, "is_semisimple at n = 40"):
        assert is_semisimple(x)  # its characteristic polynomial is squarefree
    with time_bound(2.0, "jordan_chevalley at n = 40"):
        jp = jordan_chevalley(x)
    assert jp.semisimple_part == x and jp.nilpotent_part.is_zero()
    with time_bound(3.0, "same_orbit at n = 40"), pytest.raises(IrrationalSpectrumError):
        same_orbit(x, x)


def test_same_orbit_of_a_40x40_jordan_type_is_bounded():
    # repeated rational eigenvalues: the spectrum of one shared characteristic polynomial, then a rank
    # sequence per eigenvalue
    rng = random.Random(40)
    x = rand_jordan_type(rng, 40)
    g, gi = rand_unimodular(rng, 40)
    y = conjugate(g, gi, x)
    with time_bound(3.0, "same_orbit of a 40x40 Jordan type"):
        assert same_orbit(x, y)


def test_rank_sequences_power_primitive_bases(monkeypatch):
    # X - mu I, X = d*x and mu = d*lam, can share a factor g that its k-th power would carry as g^k; the
    # first matrix a rank sequence hands to rank is that base over its content (a higher power may have one)
    handed = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: handed.append(m) or rank(m))
    rng = random.Random(83)
    pairs = []
    for n in range(5, 13):
        for _ in range(4):
            x = rand_jordan_type(rng, n)
            g, gi = rand_unimodular(rng, n)
            pairs.append((x, conjugate(g, gi, x)))
    rng = random.Random(40)  # the pair of test_same_orbit_of_a_40x40_jordan_type_is_bounded
    x = rand_jordan_type(rng, 40)
    g, gi = rand_unimodular(rng, 40)
    pairs.append((x, conjugate(g, gi, x)))
    bases = 0
    for x, y in pairs:
        if x.n < 40:
            assert same_orbit(x, y)
        d, rows = _scaled(x, y)  # the integer forms same_orbit reads, on one denominator
        for lam, mult in rational_eigenvalues(x).items():
            ranks = []
            for z in rows:
                handed.clear()
                ranks.append(list(_rank_sequence(z, int(d * lam), mult)))
                assert len(handed) == mult - 1
                if handed:
                    assert math.gcd(*chain.from_iterable(handed[0])) == 1, (x, y, lam)
                    bases += 1
            assert ranks[0] == ranks[1]
            if x.n < 40:  # against the ranks of the Fraction powers of x - lam I
                shifted = [[v - lam * (i == j) for j, v in enumerate(row)] for i, row in enumerate(x.to_matrix())]
                power, want = shifted, []
                for k in range(1, mult):
                    if k > 1:
                        power = plain_mul(power, shifted)
                    want.append(naive_rank(power))
                assert ranks[0] == want
    assert bases >= 120


def test_jordan_chevalley_of_a_40x40_jordan_type_is_bounded():
    # repeated rational eigenvalues, so the Newton rounds run on degree-40 remainders
    rng = random.Random(40)
    x = rand_jordan_type(rng, 40)
    g, gi = rand_unimodular(rng, 40)
    y = conjugate(g, gi, x)
    with time_bound(3.0, "jordan_chevalley of a 40x40 Jordan type"):
        jp = jordan_chevalley(y)
    xs, xn = jp.semisimple_part.to_matrix(), jp.nilpotent_part.to_matrix()
    assert [[u + v for u, v in zip(r, s)] for r, s in zip(xs, xn)] == y.to_matrix()
    assert plain_mul(xs, xn) == plain_mul(xn, xs) and not jp.nilpotent_part.is_zero()


def check_jordan_properties(x):
    jp = jordan_chevalley(x)
    xs, xn = jp.semisimple_part, jp.nilpotent_part
    assert is_semisimple(xs)
    assert is_nilpotent(xn)
    assert (xs + xn).entries == x.entries
    assert bracket(xs, xn).is_zero()
    assert linalg.poly_eval_matrix(list(jp.semisimple_witness), x.to_matrix()) == xs.to_matrix()
    assert linalg.poly_eval_matrix(list(jp.nilpotent_witness), x.to_matrix()) == xn.to_matrix()
    return jp


def test_jordan_chevalley_random_and_idempotent():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 5)
        x = rng.choice((rand_traceless, rand_jordan_type))(rng, n)
        jp = check_jordan_properties(x)
        again = jordan_chevalley(jp.semisimple_part)
        assert again.semisimple_part.entries == jp.semisimple_part.entries
        assert again.nilpotent_part.is_zero()


def scaled(x, c):
    return SlnElement.from_rows([[c * v for v in row] for row in x.entries])


def test_integer_ops_against_plain_fraction_oracles():
    # bracket, killing, kks_form and jordan_chevalley read their inputs' integer forms and build each
    # result entry once: mixed denominators, a nilpotent in halves (its Horner denominator 1 is no
    # multiple of its scale 2), zero, and Jordan types in sixths, against products of Fractions
    rng = random.Random(25)
    halves = SlnElement.from_rows([["1/2", "3/2", 0], [-1, "-1/2", "5/2"], [0, "1/2", 0]])
    thirds = SlnElement.from_rows([["1/3", 0, "2/3"], ["-4/3", 1, 0], [2, "1/3", "-4/3"]])
    half_nilpotent = SlnElement.from_rows([[0, "1/2"], [0, 0]])
    cases = [(halves, thirds), (thirds, halves), (SlnElement.zero(3), halves)]
    cases += [(half_nilpotent, SlnElement.zero(2)), (SlnElement.zero(2), half_nilpotent)]
    sixth = Fraction(1, 6)
    cases += [(scaled(rand_jordan_type(rng, n), sixth), scaled(rand_jordan_type(rng, n), sixth)) for n in range(2, 8)]
    for x, y in cases:
        a, b, n = x.to_matrix(), y.to_matrix(), x.n
        w = [list(col) for col in zip(*a)]  # x transposed, a third traceless element
        br, k, kks = bracket(x, y), killing(x, y), kks_form(x, y, SlnElement.from_rows(w))
        assert br.to_matrix() == plain_commutator(a, b)
        assert k == 2 * n * plain_trace_product(a, b)
        assert kks == 2 * n * plain_trace_product(a, plain_commutator(b, w))
        values = [k, kks] + [v for row in br.entries for v in row]
        for z in (x, y):
            m = z.to_matrix()
            jp = jordan_chevalley(z)
            xs, xn = jp.semisimple_part.to_matrix(), jp.nilpotent_part.to_matrix()
            assert jp.semisimple_witness == tuple(plain_jordan_witness(linalg.charpoly(m)))
            assert xs == plain_poly_eval_matrix(jp.semisimple_witness, m)
            assert [[u + v for u, v in zip(r, s)] for r, s in zip(xs, xn)] == m
            assert plain_commutator(xs, xn) == [[0] * n for _ in range(n)]
            values += [v for part in jp[:2] for row in part.entries for v in row]
        assert all(type(v) is Fraction for v in values)
    jp = jordan_chevalley(half_nilpotent)  # sigma = 0, so den = 1, which the scale d = 2 of x does not divide
    assert jp.semisimple_part.is_zero() and jp.nilpotent_part == half_nilpotent


def test_phi_examples_and_invariance():
    assert invariants_phi(X) == (Fraction(0),)
    assert invariants_phi(H) == (Fraction(-1),)
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(2, 4)
        x = rand_jordan_type(rng, n)
        jp = jordan_chevalley(x)
        assert invariants_phi(x) == invariants_phi(jp.semisimple_part)
        g, gi = rand_unimodular(rng, n)
        assert invariants_phi(conjugate(g, gi, x)) == invariants_phi(x)


def test_phi_zero_iff_nilpotent():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 6)
        x = rng.choice((rand_traceless, rand_nilpotent, rand_jordan_type, rand_rational_spectrum))(rng, n)
        assert nilpotent_by_power(x) == is_nilpotent(x) == all(c == 0 for c in invariants_phi(x))


def test_trace_power():
    assert trace_power(SlnElement.zero(3), 2) == 0
    assert trace_power(H, 2) == 8
    rng = random.Random(67)
    for n in (2, 3):
        x = rand_nilpotent(rng, n)
        for k in range(1, 2 * n + 1):
            assert trace_power(x, k) == 0
    with pytest.raises(ValueError):
        trace_power(H, 0)


def test_trace_power_against_powers_of_ad():
    rng = random.Random(69)
    for n in range(1, 5):
        for _ in range(3):
            x = rand_fraction_traceless(rng, n)
            ad = ad_matrix(x)
            power = ad
            for k in range(1, 2 * n + 2):  # past k = n, where the integer powers of d*x carry d^k
                if k > 1:
                    power = plain_mul(power, ad)
                assert trace_power(x, k) == sum((power[i][i] for i in range(len(ad))), Fraction(0))


# Monic integer polynomials, lowest degree first, whose companion blocks have
# irrational spectra: t^2 - 2, t^2 + 1 and t^3 - 2.
IRRATIONAL = ((-2, 0, 1), (1, 0, 1), (-2, 0, 0, 1))


def companion(p):
    m = len(p) - 1
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        if i:
            rows[i][i - 1] = Fraction(1)
        rows[i][m - 1] = Fraction(-p[i])
    return rows


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off : off + len(b)] = row
        off += len(b)
    return rows


def make_block(kind, arg):
    """A Jordan block (eigenvalue, size), a companion block, or two companion
    blocks of p coupled by the identity, whose only invariant factor is p^2."""
    if kind == "jordan":
        lam, size = arg
        return [[Fraction(lam if i == j else int(j == i + 1)) for j in range(size)] for i in range(size)]
    c = companion(arg)
    if kind == "companion":
        return c
    m = len(c)
    top = [row + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(c)]
    return top + [[Fraction(0)] * m + row for row in c]


def structured_matrix(blocks, shears):
    """Block-diagonal matrix of the given blocks, conjugated by integer shears, made traceless."""
    rows = block_diagonal([make_block(kind, arg) for kind, arg in blocks])
    n = len(rows)
    for i, j, c in shears:
        if i < n and j < n and i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    shift = sum(rows[i][i] for i in range(n)) / n
    for i in range(n):
        rows[i][i] -= shift
    return rows


@st.composite
def matrices_with_structure(draw):
    block = st.one_of(
        st.tuples(st.just("jordan"), st.tuples(st.integers(-2, 2), st.integers(1, 3))),
        st.tuples(st.sampled_from(["companion", "coupled"]), st.sampled_from(IRRATIONAL)),
    )
    blocks, size = [], 0
    for kind, arg in draw(st.lists(block, min_size=1, max_size=4)):
        width = len(make_block(kind, arg))
        if size + width <= 7:
            blocks.append((kind, arg))
            size += width
    shear = st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from([-2, -1, 1, 2]))
    return structured_matrix(blocks, draw(st.lists(shear, max_size=10)))


def invariant_factors_by_sympy(m):
    t = sympy.Symbol("t")
    n = len(m)
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
    out = []
    for f in sympy_invariant_factors(t * sympy.eye(n) - sm, domain=sympy.QQ[t]):
        p = sympy.Poly(f, t)
        if p.degree() > 0:
            out.append([Fraction(int(c.p), int(c.q)) for c in reversed(p.monic().all_coeffs())])
    return out


SHEARS = [(0, 1, 1), (2, 0, -1), (1, 3, 2), (3, 2, 1), (4, 1, -2)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(matrices_with_structure())
@example(structured_matrix([("companion", IRRATIONAL[0]), ("companion", IRRATIONAL[0])], SHEARS))
@example(structured_matrix([("coupled", IRRATIONAL[1]), ("companion", IRRATIONAL[1])], SHEARS))
@example(structured_matrix([("companion", IRRATIONAL[2]), ("coupled", IRRATIONAL[0])], SHEARS))
@example(structured_matrix([("companion", IRRATIONAL[2]), ("jordan", (1, 2)), ("jordan", (1, 1))], SHEARS))
@example(structured_matrix([("jordan", (0, 1))], []))
def test_invariant_factors_against_sympy_and_ad_nullity(m):
    factors = linalg.invariant_factors(m)
    assert factors == invariant_factors_by_sympy(m)
    assert all(type(c) is Fraction for f in factors for c in f)
    x = SlnElement.from_rows(m)
    assert centralizer_dim(x) == ad_nullity(x)


def scalar(n, c):
    return [[Fraction(c if i == j else 0) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "m, expected",
    [
        (scalar(4, 0), [[0, 1]] * 4),  # the zero matrix
        (scalar(3, Fraction(-5, 2)), [["5/2", 1]] * 3),  # scalar diagonal
        # derogatory nilpotent with three equal blocks J_2, conjugated
        (structured_matrix([("jordan", (0, 2))] * 3, SHEARS), [[0, 0, 1]] * 3),
        (companion((5, -2, 0, 0, 1)), [[5, -2, 0, 0, 1]]),  # t^4 - 2t + 5
    ],
)
def test_invariant_factors_special_cases(m, expected):
    factors = linalg.invariant_factors(m)
    assert factors == [[Fraction(c) for c in f] for f in expected] == invariant_factors_by_sympy(m)


@st.composite
def rational_jordan_matrices(draw):
    block = st.tuples(st.just("jordan"), st.tuples(st.integers(-2, 2), st.integers(1, 4)))
    blocks, size = [], 0
    for b in draw(st.lists(block, min_size=1, max_size=5)):
        if size + b[1][1] <= 6:
            blocks.append(b)
            size += b[1][1]
    shear = st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-2, -1, 1, 2]))
    return structured_matrix(blocks, draw(st.lists(shear, max_size=8)))


def jordan_type_by_sympy(m):
    # {eigenvalue: block sizes, decreasing} read off the diagonal and superdiagonal of J
    _, j = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]).jordan_form()
    out, start = {}, 0
    for i in range(j.rows):
        if i + 1 == j.rows or j[i, i + 1] == 0:
            lam = Fraction(int(j[i, i].p), int(j[i, i].q))
            out.setdefault(lam, []).append(i + 1 - start)
            start = i + 1
    return {lam: sorted(sizes, reverse=True) for lam, sizes in out.items()}


def jordan_type_by_ranks(x):
    # blocks of size >= k at lam number rank^(k-1) - rank^k, with rank^0 = n and rank^mult = n - mult
    out = {}
    d, a = x.entries.scaled
    for lam, mult in rational_eigenvalues(x).items():
        ranks = [x.n] + list(_rank_sequence(a, int(d * lam), mult)) + [x.n - mult]
        at_least = [ranks[k - 1] - ranks[k] for k in range(1, mult + 1)]
        out[lam] = [k for k in range(mult, 0, -1) for _ in range(at_least[k - 1] - (at_least[k] if k < mult else 0))]
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rational_jordan_matrices())
@example(structured_matrix([("jordan", (1, 3)), ("jordan", (1, 1)), ("jordan", (-1, 2))], SHEARS))
@example(structured_matrix([("jordan", (0, 2))] * 3, SHEARS))
def test_same_orbit_jordan_type_against_sympy(m):
    assert jordan_type_by_ranks(SlnElement.from_rows(m)) == jordan_type_by_sympy(m)


def test_same_orbit_examples():
    rng = random.Random(71)
    for n in (2, 3, 4):
        x = rand_nilpotent(rng, n)
        if x.is_zero():
            continue
        assert same_orbit(x, 3 * x)
        assert same_orbit(x, Fraction(-1, 2) * x)
    assert same_orbit(SlnElement.from_rows([[1, 0], [0, -1]]), SlnElement.from_rows([[-1, 0], [0, 1]]))
    assert same_orbit(E(3, 1, 2), E(3, 1, 3))
    assert not same_orbit(X, H)
    assert not same_orbit(E(3, 1, 2), SlnElement.zero(3))
    assert same_orbit(SlnElement.zero(3), SlnElement.zero(3))  # x = lam I: a zero base of content 0
    with pytest.raises(IrrationalSpectrumError):
        same_orbit(SlnElement.from_rows([[0, 2], [1, 0]]), H)


def test_same_orbit_roots_a_shared_characteristic_polynomial_once(monkeypatch):
    # a rational spectrum fixes the characteristic polynomial: y's roots are sought only when its polynomial
    # differs from x's, and an irrational x raises before y's polynomial is formed
    roots_calls, charpoly_calls = [], []
    rational_roots, charpoly = linalg.rational_roots, linalg._int_charpoly
    monkeypatch.setattr(linalg, "rational_roots", lambda p: roots_calls.append(p) or rational_roots(p))
    monkeypatch.setattr(linalg, "_int_charpoly", lambda a: charpoly_calls.append(a) or charpoly(a))

    def calls(x, y):
        roots_calls.clear()
        charpoly_calls.clear()
        try:
            answer = same_orbit(x, y)
        except IrrationalSpectrumError:
            answer = IrrationalSpectrumError
        return answer, len(roots_calls), len(charpoly_calls)

    rng = random.Random(79)
    for n in (3, 5, 7):
        x = rand_jordan_type(rng, n)
        g, gi = rand_unimodular(rng, n)
        assert calls(x, conjugate(g, gi, x)) == (True, 1, 2)
    assert calls(E(3, 1, 2), SlnElement.zero(3)) == (False, 1, 2)  # one polynomial t^3, two Jordan types
    assert calls(X, H) == (False, 2, 2)
    assert calls(H, 2 * H) == (False, 2, 2)
    irrational = SlnElement.from_rows([[0, 2], [1, 0]])
    assert calls(irrational, H) == (IrrationalSpectrumError, 1, 1)
    assert calls(irrational, irrational) == (IrrationalSpectrumError, 1, 1)
    assert calls(H, irrational) == (IrrationalSpectrumError, 2, 2)


def test_semisimplicity_jordan_parts_and_conjugacy_scale_their_input_once(monkeypatch):
    # is_semisimple, jordan_chevalley and same_orbit read the integer form each element built once, with
    # its entries, and stay in Z[t] from there: no scaling sees a Fraction (poly_eval_matrix and the rank
    # sequences get ints, and a squarefree or nilpotent input scales no polynomial), and none forms charpoly
    rng = random.Random(30)
    sixth = Fraction(1, 6)
    pairs = []
    for n in (2, 4, 6, 8):
        x = sixth * rand_jordan_type(rng, n)
        g, gi = rand_unimodular(rng, n)
        pairs += [(x, conjugate(g, gi, x)), (x, sixth * rand_nilpotent(rng, n))]
    squarefree = [sixth * SlnElement.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), rand_fraction_traceless(rng, 5)]
    nilpotent = [sixth * rand_nilpotent(rng, n) for n in (2, 5, 9)]
    scaled = []
    integer_scaled = linalg._integer_scaled

    def counted(a):
        if any(type(v) is not int for row in a for v in row):
            scaled.append(a)
        return integer_scaled(a)

    def refuse(a):
        raise AssertionError("charpoly called")

    monkeypatch.setattr(linalg, "_integer_scaled", counted)
    monkeypatch.setattr(linalg, "charpoly", refuse)
    for x, y in pairs:
        scaled.clear()
        same_orbit(x, y)
        assert scaled == []
        is_semisimple(x)
        assert scaled == []
        jordan_chevalley(x)  # no charpoly either; with a repeated root, the Newton map scales the inverse of Q'
    for x in squarefree + nilpotent:
        scaled.clear()
        jordan_chevalley(x)
        assert scaled == []


def holds_rows_of(a, elements):
    # whether the matrix a holds a Fraction and all rows of one of the elements, in order, as
    # x.entries + y.entries or x.to_matrix() would
    rows = [tuple(r) for r in a]
    if all(type(v) is int for row in rows for v in row):
        return False
    return any(rows[i : i + z.n] == list(z.entries) for z in elements for i in range(len(rows) - z.n + 1))


def test_no_sln_or_triples_op_scales_an_elements_entries(monkeypatch):
    # every op reads the integer forms its elements built with their entries: linalg._integer_scaled
    # still scales the Newton map's inverse of Q', invariant_factors' kernel vectors and the inverse of the
    # Jacobson-Morozov chain basis, but never an element's rows
    rng = random.Random(32)
    sixth, third = Fraction(1, 6), Fraction(1, 3)
    seen = []
    integer_scaled = linalg._integer_scaled

    def recorded(a):
        seen.append(a)
        return integer_scaled(a)

    ops = []
    for n in (2, 3, 5):
        x, y, z = sixth * rand_jordan_type(rng, n), third * rand_traceless(rng, n), rand_fraction_traceless(rng, n)
        g, gi = rand_unimodular(rng, n)
        e = third * conjugate(g, gi, jordan_matrix(Partition((n,))))
        t = jacobson_morozov_sln(e)
        ops += [
            (bracket, x, y),
            (killing, x, y),
            (kks_form, x, y, z),
            (lambda a: trace_power(a, 3), x),
            (is_nilpotent, x),
            (is_nilpotent, e),
            (is_semisimple, x),
            (jordan_chevalley, x),
            (same_orbit, x, conjugate(g, gi, x)),
            (same_orbit, x, e),
            (invariants_phi, x),
            (rational_eigenvalues, x),
            (centralizer_dim, z),
            (orbit_dim, x),
            (jacobson_morozov_sln, e),
            (verify_matrix_triple, t),
            (lambda a, b: a + b, x, y),
            (lambda a, b: a - b, x, y),
            (lambda a: third * a, x),
            (lambda a: -a, x),
        ]
    monkeypatch.setattr(linalg, "_integer_scaled", recorded)
    for op, *args in ops:
        elements = [v for a in args for v in (a if isinstance(a, MatrixTriple) else [a])]
        forms = [(z.entries.scaled[0], [list(row) for row in z.entries.scaled[1]]) for z in elements]
        seen.clear()
        op(*args)
        assert not any(holds_rows_of(a, elements) for a in seen), (op, args)
        assert [(z.entries.scaled[0], [list(row) for row in z.entries.scaled[1]]) for z in elements] == forms, (op, args)


def test_same_orbit_dilation_of_nilpotent_part():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(2, 4)
        x = rand_jordan_type(rng, n)
        jp = jordan_chevalley(x)
        for a in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            y = jp.semisimple_part + a * jp.nilpotent_part
            assert same_orbit(x, y)


def rand_jordan_pair(rng, n):
    """Two conjugates of Jordan matrices with one spectrum.

    Per eigenvalue, y's blocks have as many parts as x's (so rank(x - lambda)
    agrees and only higher powers can tell them apart) or are drawn freely.
    """
    mults = rand_partition(rng, n).parts
    values = rng.sample(range(-3, 4), len(mults))
    shift = Fraction(sum(v * m for v, m in zip(values, mults)), n)
    types_x = [rand_partition(rng, m) for m in mults]
    types_y = []
    for lam, m in zip(types_x, mults):
        same_length = [q for q in partitions(m) if len(q.parts) == len(lam.parts)]
        types_y.append(rng.choice(same_length) if rng.random() < 0.7 else rand_partition(rng, m))

    def build(types):
        rows = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for v, lam in zip(values, types):
            for p in lam.parts:
                for i in range(p):
                    rows[off + i][off + i] = v - shift
                    if i + 1 < p:
                        rows[off + i][off + i + 1] = Fraction(1)
                off += p
        g, gi = rand_unimodular(rng, n)
        return conjugate(g, gi, SlnElement.from_rows(rows))

    return build(types_x), build(types_y)


def test_same_orbit_against_full_rank_sequence():
    rng = random.Random(77)
    seen = set()
    for i in range(60):
        n = 2 + i % 5
        x, y = rand_jordan_pair(rng, n)
        want = same_orbit_by_full_ranks(x, y)
        assert same_orbit(x, y) is want
        seen.add(want)
    assert seen == {True, False}


def test_kks_examples():
    assert kks_form(H, X, X) == 0
    assert kks_form(H, X, Y) == 8
    assert kks_form(H, X, Y) == -kks_form(H, Y, X)
    # centralizer elements are in the radical of the pairing
    x = E(3, 1, 2)
    kernel = linalg.nullspace(ad_matrix(x))
    basis = [SlnElement.from_rows(b) for b in plain_basis(3)]
    for v in kernel:
        y = SlnElement.zero(3)
        for c, b in zip(v, basis):
            y = y + c * b
        for b in basis:
            assert kks_form(x, y, b) == 0


def test_kks_matrix_rank_and_radical():
    rng = random.Random(79)
    basis_cache = {}
    for _ in range(9):
        n = rng.randint(2, 3)
        x = rng.choice((rand_traceless, rand_nilpotent, rand_jordan_type))(rng, n)
        m = kks_matrix(x)
        basis = basis_cache.setdefault(n, [SlnElement.from_rows(b) for b in plain_basis(n)])
        # entry honesty against the three-argument form
        for i in (0, len(basis) - 1):
            for j in (0, len(basis) - 1):
                assert m[i][j] == kks_form(x, basis[i], basis[j])
        ad = ad_matrix(x)
        assert linalg.rank(m) == orbit_dim(x)
        for v in linalg.nullspace(m):
            assert all(c == 0 for c in mat_vec(ad, v))
        assert len(linalg.nullspace(m)) == centralizer_dim(x)


def test_matrix_json_round_trip():
    x = SlnElement.from_rows([[Fraction(1, 2), 1], [0, Fraction(-1, 2)]])
    d = matrix_to_json(x)
    assert d == {"n": 2, "entries": [["1/2", "1"], ["0", "-1/2"]]}
    assert matrix_from_json(d).entries == x.entries
    with pytest.raises(ValueError):
        matrix_from_json({"n": 3, "entries": [["0", "0"], ["0", "0"]]})
