import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import conjugate, jm_by_stages, plain_mul, rand_nilpotent, rand_unimodular, time_bound
from lieorbits import linalg
from lieorbits.cli import matrix_to_json
from lieorbits.orbits import Partition, jordan_matrix, partitions
from lieorbits.rootsys import CartanType, build_root_system
from lieorbits.sln import SlnElement, ad_matrix, centralizer_dim, orbit_dim
from lieorbits.triples import (
    MatrixTriple,
    jacobson_morozov_sln,
    kostant_principal,
    principal_triple_sln,
    verify_matrix_triple,
)

X = SlnElement.from_rows([[0, 1], [0, 0]])
H = SlnElement.from_rows([[1, 0], [0, -1]])
Y = SlnElement.from_rows([[0, 0], [1, 0]])

PRINCIPAL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", n) for n in range(3, 6)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_verify_matrix_triple():
    assert verify_matrix_triple(MatrixTriple(X, H, Y))
    z = SlnElement.zero(2)
    assert verify_matrix_triple(MatrixTriple(z, z, z))
    assert not verify_matrix_triple(MatrixTriple(X, H, X))
    with pytest.raises(ValueError):
        verify_matrix_triple(MatrixTriple(X, H, SlnElement.zero(3)))


def test_verify_matrix_triple_catches_every_one_entry_change():
    # +1 at an off-diagonal entry of h breaks [x,y] = h.  A change E to x
    # survives only if [E,y] = 0 and [h,E] = 2E, but the centralizer of y has
    # ad h-weights <= 0 only; a change to y would need weight -2 in the
    # centralizer of x, whose weights are >= 0.  So every such change fails.
    rng = random.Random(29)
    samples = [SlnElement.zero(2)] + [rand_nilpotent(rng, n) for n in range(2, 7) for _ in range(3)]
    for e in samples:
        t = jacobson_morozov_sln(e)
        assert verify_matrix_triple(t)
        n = e.n
        for which in range(3):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        rows = [list(row) for row in t[which].entries]
                        rows[i][j] += 1
                        changed = list(t)
                        changed[which] = SlnElement.from_rows(rows)
                        assert not verify_matrix_triple(MatrixTriple(*changed)), (e, which, i, j)


@pytest.mark.parametrize("family,rank", PRINCIPAL_TYPES)
def test_kostant_principal_every_type(family, rank):
    rs = build_root_system(CartanType(family, rank))
    t = kostant_principal(rs)
    # alpha_i(h) = sum_j a_ij c_j, row i of the Cartan matrix against the coroot coordinates
    values = [sum(a * c for a, c in zip(row, t.h.coords)) for row in rs.cartan_matrix]
    assert values == [2] * rank
    assert t.c == t.h.coords
    # every root evaluates to twice its height, an even integer
    for r in rs.roots:
        v = sum(k * x for k, x in zip(r.coeffs, values))
        assert v == 2 * r.height and Fraction(v).denominator == 1


def test_kostant_coefficients_small_types():
    a1 = build_root_system(CartanType("A", 1))
    assert kostant_principal(a1).c == (Fraction(1),)
    a2 = build_root_system(CartanType("A", 2))
    assert kostant_principal(a2).c == (Fraction(2), Fraction(2))
    a3 = build_root_system(CartanType("A", 3))
    assert kostant_principal(a3).c == (Fraction(3), Fraction(4), Fraction(3))


def test_principal_triple_sln():
    t2 = principal_triple_sln(2)
    assert (t2.x.entries, t2.h.entries, t2.y.entries) == (X.entries, H.entries, Y.entries)
    t4 = principal_triple_sln(4)
    assert list(kostant_principal(build_root_system(CartanType("A", 3))).c) == [
        t4.y.entries[i + 1][i] for i in range(3)
    ]
    # x the full superdiagonal, h = diag(n-1, n-3, ..., 1-n), y the subdiagonal i(n-i)
    for n in range(2, 13):
        t = principal_triple_sln(n)
        x = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        h = [[n - 1 - 2 * i if j == i else 0 for j in range(n)] for i in range(n)]
        y = [[i * (n - i) if j == i - 1 else 0 for j in range(n)] for i in range(n)]
        assert [list(row) for row in t.x.entries] == x
        assert [list(row) for row in t.h.entries] == h
        assert [list(row) for row in t.y.entries] == y
        assert verify_matrix_triple(t)
        assert centralizer_dim(t.x) == n - 1 == centralizer_dim(t.h)
    with pytest.raises(ValueError):
        principal_triple_sln(1)


def test_principal_summand_count_is_rank():
    # dim ker(ad_x) counts the irreducible summands; it must equal the rank
    for n in range(2, 7):
        t = principal_triple_sln(n)
        assert centralizer_dim(t.x) == n - 1


def test_jacobson_morozov_examples():
    z = SlnElement.zero(3)
    t = jacobson_morozov_sln(z)
    assert t.x.is_zero() and t.h.is_zero() and t.y.is_zero()
    t = jacobson_morozov_sln(X)
    assert verify_matrix_triple(t) and t.x.entries == X.entries
    e12 = SlnElement.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    t = jacobson_morozov_sln(e12)
    assert verify_matrix_triple(t)
    # h is conjugate to diag(1, -1, 0)
    assert linalg.charpoly(t.h.to_matrix()) == [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        jacobson_morozov_sln(H)


def test_jacobson_morozov_decides_nilpotency_by_its_powers(monkeypatch):
    def refuse(a):
        raise AssertionError("jacobson_morozov_sln called charpoly")

    monkeypatch.setattr(linalg, "charpoly", refuse)
    rng = random.Random(89)
    for n in (2, 3, 4, 5, 6):
        e = rand_nilpotent(rng, n)
        assert verify_matrix_triple(jacobson_morozov_sln(e))
    cycle = SlnElement.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # cycle^3 = 1
    for x in (H, cycle):
        with pytest.raises(ValueError, match="^input must be nilpotent$"):
            jacobson_morozov_sln(x)


def integer_eigenvalue_multiset(m):
    roots, rest = linalg.rational_roots(linalg.charpoly(m))
    assert not linalg.poly_deg(rest)
    out = Counter()
    for r, mult in roots:
        assert r.denominator == 1
        out[int(r)] += mult
    return out


def test_jacobson_morozov_runs_its_bracket_check(monkeypatch):
    # the relations are checked on the integer h and y before they become Fractions: a chain-basis
    # inverse scaled by 2 doubles both, which keeps [x, y] = h but breaks [h, x] = 2x
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: [[2 * v for v in row] for row in inverse(a)])
    for parts in ((2,), (3, 2), (4, 1, 1)):
        with pytest.raises(RuntimeError, match="constructed triple violated the bracket relations"):
            jacobson_morozov_sln(jordan_matrix(Partition(parts)))


def test_jacobson_morozov_random():
    rng = random.Random(83)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            e = rand_nilpotent(rng, n)
            t = jacobson_morozov_sln(e)
            assert verify_matrix_triple(t)
            assert t.x.entries == e.entries
            assert orbit_dim(t.x) == orbit_dim(e)
            integer_eigenvalue_multiset(t.h.to_matrix())


def test_jm_top_weights_match_string_peeling():
    # the ad_h eigenvalues on ker(ad_e) are the string tops of the full ad_h spectrum
    rng = random.Random(89)
    for n in (2, 3, 4):
        for _ in range(6):
            e = rand_nilpotent(rng, n)
            if e.is_zero():
                continue
            t = jacobson_morozov_sln(e)
            ad_e, ad_h = ad_matrix(e), ad_matrix(t.h)
            dim = n * n - 1
            spectrum = Counter()
            seen = 0
            for m in range(-2 * n, 2 * n + 1):
                shifted = [row[:] for row in ad_h]
                for i in range(dim):
                    shifted[i][i] -= m
                mult = dim - linalg.rank(shifted)
                if mult:
                    spectrum[m] += mult
                    seen += mult
            assert seen == dim
            tops = Counter()
            while spectrum:
                top = max(spectrum)
                for v in range(-top, top + 1, 2):
                    spectrum[v] -= 1
                    if not spectrum[v]:
                        del spectrum[v]
                tops[top] += 1
            kernel_weights = Counter()
            for m in tops:
                stacked = [row[:] for row in ad_e]
                shifted = [row[:] for row in ad_h]
                for i in range(dim):
                    shifted[i][i] -= m
                stacked.extend(shifted)
                kernel_weights[m] = dim - linalg.rank(stacked)
            assert kernel_weights == tops
            assert sum(tops.values()) == dim - linalg.rank(ad_e)


def repeated_top_nilpotents():
    # 30 seeded conjugates of Jordan forms whose largest block size repeats,
    # e.g. 2+2+1 or 3+3+2, where the chain-top choice has the most freedom
    rng = random.Random(97)
    out = []
    for k in range(30):
        n = 2 + k % 7
        pool = [p for p in partitions(n) if len(p.parts) > 1 and p.parts[0] == p.parts[1] > 1]
        lam = rng.choice(pool) if pool and rng.random() < 0.7 else rng.choice(partitions(n))
        g, gi = rand_unimodular(rng, n, 3 * n)
        out.append(conjugate(g, gi, jordan_matrix(lam)))
    return out


def test_jacobson_morozov_chain_basis_pinned():
    # the triples are fixed by the deterministic chain-top choice; the digest
    # pins them byte for byte
    digest = hashlib.sha256()
    for e in repeated_top_nilpotents():
        t = jacobson_morozov_sln(e)
        assert verify_matrix_triple(t)
        digest.update(json.dumps([matrix_to_json(m) for m in (t.x, t.h, t.y)]).encode())
    assert digest.hexdigest() == "3699426110738b4fdf10645e9c1a4625af0a8c2a206aab94651edef7dac2e79d"


def test_jacobson_morozov_equals_the_per_stage_oracle():
    # one elimination of all chain bottoms picks the tops that one elimination per
    # chain length over the kernel filtration picks, so h and y agree exactly
    rng = random.Random(101)
    samples = [SlnElement.zero(n) for n in range(1, 5)] + repeated_top_nilpotents()
    samples += [rand_nilpotent(rng, n) for n in range(1, 9) for _ in range(4)]
    samples += [Fraction(c, 6) * rand_nilpotent(rng, n) for n in range(2, 8) for c in (1, -5)]  # E = d*e, d > 1
    for e in samples:
        t = jacobson_morozov_sln(e)
        assert t.x == e
        assert ([list(row) for row in t.h.entries], [list(row) for row in t.y.entries]) == jm_by_stages(e)


def test_jacobson_morozov_stops_once_the_chains_cover_the_space(monkeypatch):
    # the stages run from the nilpotency index down to the smallest block size, after which the chains
    # hold n vectors; a stage eliminates a square power E^k (the span of bottoms starts empty, and the
    # chain-basis inverse eliminates [G | I])
    stages = []
    echelon = linalg._Echelon

    def counting(m=()):
        if m and len(m) == len(m[0]):
            stages.append(m)
        return echelon(m)

    monkeypatch.setattr(linalg, "_Echelon", counting)
    g, gi = rand_unimodular(random.Random(7), 8)
    e = conjugate(g, gi, jordan_matrix(Partition((4, 4))))
    assert verify_matrix_triple(jacobson_morozov_sln(e))
    assert len(stages) == 1
    rng = random.Random(103)
    for n in range(1, 8):
        for lam in partitions(n):
            g, gi = rand_unimodular(rng, n)
            e = conjugate(g, gi, jordan_matrix(lam))
            stages.clear()
            t = jacobson_morozov_sln(e)
            assert t.x == e and verify_matrix_triple(t)
            assert len(stages) == (lam.parts[0] - lam.parts[-1] + 1 if lam.parts[0] > 1 else 0), lam


def test_jacobson_morozov_at_the_matrix_limit_is_bounded():
    n = 40
    rng = random.Random(1)
    upper = SlnElement.from_rows([[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)])
    g, gi = rand_unimodular(random.Random(2), n)
    pairs = conjugate(g, gi, jordan_matrix(Partition((2,) * 20)))
    for e in (upper, pairs):
        with time_bound(5.0, "jacobson_morozov_sln at n = 40"):
            t = jacobson_morozov_sln(e)
        assert t.x == e and verify_matrix_triple(t)
    # t is the triple of the 2^20 conjugate: h has eigenvalues 1 and -1 and is diagonalizable, and y squares to zero
    h, y = t.h.to_matrix(), t.y.to_matrix()
    assert plain_mul(h, h) == [[int(i == j) for j in range(n)] for i in range(n)]
    assert plain_mul(y, y) == [[0] * n for _ in range(n)]
