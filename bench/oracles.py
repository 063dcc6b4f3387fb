"""Answers the benchmark knows by construction, computed without lieorbits.

Nothing here imports the package under test.  The tables are the standard
ones for the simple Cartan types (Bourbaki numbering, branch node of the
E-types numbered 2); the small exact routines (matrix product, Levi root
closure, partition counts, dominance covers) are independent
re-implementations used only to check the program's answers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# Cartan types

_EXPONENTS_EXCEPTIONAL = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}
_COXETER_EXCEPTIONAL = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}
_DUAL_COXETER_EXCEPTIONAL = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 9, ("G", 2): 4}
_E_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def coxeter_number(fam: str, r: int) -> int:
    return {"A": r + 1, "B": 2 * r, "C": 2 * r, "D": 2 * r - 2}.get(fam) or _COXETER_EXCEPTIONAL[(fam, r)]


def dual_coxeter_number(fam: str, r: int) -> int:
    return {"A": r + 1, "B": 2 * r - 1, "C": r + 1, "D": 2 * r - 2}.get(fam) or _DUAL_COXETER_EXCEPTIONAL[
        (fam, r)
    ]


def num_roots(fam: str, r: int) -> int:
    """|Phi| = rank * Coxeter number."""
    return r * coxeter_number(fam, r)


def exponents(fam: str, r: int) -> tuple[int, ...]:
    if fam == "A":
        return tuple(range(1, r + 1))
    if fam in ("B", "C"):
        return tuple(range(1, 2 * r, 2))
    if fam == "D":
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return _EXPONENTS_EXCEPTIONAL[(fam, r)]


def minus_w0(fam: str, r: int) -> dict[int, int]:
    """The diagram involution i -> sigma(i) with -w0(alpha_i) = alpha_sigma(i)."""
    sigma = {i: i for i in range(1, r + 1)}
    if fam == "A":
        sigma = {i: r + 1 - i for i in range(1, r + 1)}
    elif fam == "D" and r % 2 == 1:
        sigma[r - 1], sigma[r] = r, r - 1
    elif fam == "E" and r == 6:
        sigma.update({1: 6, 6: 1, 3: 5, 5: 3})
    return sigma


def poly_of_dims(dims) -> tuple[int, ...]:
    """Coefficients of prod(1 + t^d), ascending degree."""
    poly = [1]
    for d in dims:
        nxt = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + d] += c
        poly = nxt
    return tuple(poly)


@lru_cache(maxsize=None)
def cartan(fam: str, r: int) -> tuple[tuple[int, ...], ...]:
    """a[i][j] = <alpha_i, alpha_j^vee>, from the Dynkin diagram."""
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    edges: list[tuple[int, int]] = []
    if fam in ("A", "B", "C"):
        edges = [(i, i + 1) for i in range(1, r)]
    elif fam == "D":
        edges = [(i, i + 1) for i in range(1, r - 1)] + [(r - 2, r)]
    elif fam == "E":
        edges = [(i, j) for i, j in _E_EDGES if i <= r and j <= r]
    elif fam == "F":
        edges = [(1, 2), (2, 3), (3, 4)]
    elif fam == "G":
        edges = [(1, 2)]
    for i, j in edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    if fam == "B":
        a[r - 2][r - 1] = -2
    elif fam == "C":
        a[r - 1][r - 2] = -2
    elif fam == "F":
        a[1][2] = -2
    elif fam == "G":
        a[1][0] = -3
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def levi_root_count(fam: str, r: int, subset: frozenset[int]) -> int:
    """|Phi_S| for the Levi of S, by reflection closure of the simple roots in S."""
    a = cartan(fam, r)
    idx = sorted(i - 1 for i in subset)
    seen = set()
    frontier = []
    for i in idx:
        unit = tuple(1 if k == i else 0 for k in range(r))
        seen.add(unit)
        frontier.append(unit)
    while frontier:
        nxt = []
        for v in frontier:
            for i in idx:
                pairing = sum(v[j] * a[j][i] for j in range(r))
                w = list(v)
                w[i] -= pairing
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def dim_u(fam: str, r: int, subset: frozenset[int]) -> int:
    """Dimension of the unipotent radical of the standard parabolic of S."""
    return num_roots(fam, r) // 2 - levi_root_count(fam, r, subset) // 2


def walk_is_longest(fam: str, r: int, letters) -> bool:
    """True iff the letters walk rho strictly down to -rho in weight coordinates.

    Every step reflects at an index with positive coordinate, so each letter
    lengthens the element; ending at -rho makes the product w0.
    """
    a = cartan(fam, r)
    lam = [1] * r
    for i in letters:
        if not 1 <= i <= r or lam[i - 1] <= 0:
            return False
        c = lam[i - 1]
        lam = [lam[j] - c * a[i - 1][j] for j in range(r)]
    return lam == [-1] * r and len(letters) == num_roots(fam, r) // 2


@lru_cache(maxsize=None)
def inverse_cartan(fam: str, r: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in mat_inverse([[Fraction(x) for x in row] for row in cartan(fam, r)]))


# ---------------------------------------------------------------------------
# exact matrices (lists of rows of Fraction)


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def comm(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(a):
    """Gauss-Jordan inverse of a nonsingular rational matrix."""
    n = len(a)
    m = [list(row) + identity(n)[i] for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def poly_from_roots(values) -> list[Fraction]:
    """Coefficients of prod(t - v), lowest degree first."""
    p = [Fraction(1)]
    for v in values:
        nxt = [Fraction(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            nxt[i + 1] += c
            nxt[i] -= v * c
        p = nxt
    return p


# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the parts-at-most-k recurrence."""
    table = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            table[m] += table[m - k]
    return table[n]


def dominates(lam, mu) -> bool:
    """True iff lam <= mu in dominance order (partitions of one integer)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def nilpotent_orbit_dim(parts) -> int:
    """n^2 - sum_i (2i - 1) lam_i, the sl_n orbit dimension of Jordan type lam."""
    n = sum(parts)
    return n * n - sum((2 * i + 1) * p for i, p in enumerate(sorted(parts, reverse=True)))


def dominance_covers(n: int, nodes) -> set[tuple[int, int]]:
    """Covering pairs by Brylawski's rule (Discrete Math. 6, 1973).

    mu covers lam iff mu = lam + e_i - e_j (i < j) is a partition and either
    j = i + 1 or lam_i = lam_j.
    """
    index = {tuple(p): k for k, p in enumerate(nodes)}
    out = set()
    for lam in nodes:
        lam = list(lam) + [0]
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                if lam[j] == 0 or not (j == i + 1 or lam[i] == lam[j]):
                    continue
                mu = lam[:]
                mu[i] += 1
                mu[j] -= 1
                if (i > 0 and mu[i] > mu[i - 1]) or (j + 1 < len(mu) and mu[j] < mu[j + 1]):
                    continue
                out.add((index[tuple(x for x in lam if x)], index[tuple(x for x in mu if x)]))
    return out


def random_partition(rng, n: int) -> tuple[int, ...]:
    """A partition of n from random cuts of a row of n boxes, with a random cut rate."""
    rate = rng.random()
    parts, run = [], 1
    for _ in range(n - 1):
        if rng.random() < rate:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(sorted(parts, reverse=True))
