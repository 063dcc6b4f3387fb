"""Exact linear algebra and dense polynomial arithmetic over the rationals.

Matrices are lists of rows of Fraction entries; polynomials are coefficient
lists, lowest degree first, with [] as the zero polynomial.  Nothing here uses
floats or tolerances, and a float entry raises TypeError.  The kernels run on
integer scalings d*a, d the lcm of the denominators of a (a polynomial p is
the one-row matrix [p]), and build Fractions only for their results: mat_mul
and poly_mul multiply two scalings in ints, and charpoly, poly_eval_matrix
and poly_compose_mod are the Fraction views of integer kernels that sln also
reads in ints.  One fraction-free long division, _int_divmod, serves
poly_divmod, composition modulo a polynomial, the Smith form, and the
remainder sequences of the one integer gcd, _int_gcd (_int_squarefree is P
over _int_gcd(P, P')), and of the Sturm chain, which divide out each content.
One fraction-free Gauss-Jordan elimination, fed one integer row at a time, is
the only one: rank counts the rows it keeps, nullspace is the Fraction view of
its integer kernel, and solve and inverse divide its rows, sorted by pivot, by
the last pivot.  _int_charpoly solves Newton's identities on the power sums of
d*a, the first ceil(n/2) of them traces of its powers, which one lazy
sequence, _int_powers, forms as it does for Jacobson-Morozov and sln;
Paterson-Stockmeyer evaluates a polynomial at d*a on such a table of powers,
charpoly's own in the Jordan decomposition.  invariant_factors takes the Smith
form in Z[t] of the relations of a Krylov basis of d*a, grown with the same
elimination; rational_roots bisects a monic integer transform with a Sturm
chain from Fujiwara's bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, count, repeat, zip_longest
from math import gcd, isqrt, lcm
from operator import mul

Matrix = list[list[Fraction]]
Vector = list[Fraction]
Poly = list[Fraction]


def frac(x) -> Fraction:
    """Coerce an int, string ("p" or "p/q") or Fraction to Fraction.

    A float raises TypeError: Fraction would take its binary value, so 0.1
    would become 3602879701896397/36028797018963968.  So does a bool, which
    Fraction would take as 1 or 0.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) or type(x) is bool:  # bool has no subclasses
        raise TypeError(f"{x!r} is a {type(x).__name__}; give an exact int, string or Fraction")
    return Fraction(x)


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab, computed on integer scalings.

    With A = d_a*a and B = d_b*b integer matrices (d the lcm of the
    denominators), ab = AB/(d_a*d_b): the inner products run in ints, rows of
    A skip their zero entries, and each output entry is one Fraction.
    """
    da, ai = _integer_scaled(a)
    db, bi = _integer_scaled(b)
    d = da * db
    zero = Fraction(0)
    return [[Fraction(s, d) if s else zero for s in row] for row in _int_mul(ai, bi, len(b[0]) if b else 0)]


def _int_mul(a: list[list[int]], b: list[list[int]], c: int) -> list[list[int]]:
    """The product of two integer matrices, b with c columns; rows of a skip their zero entries."""
    out = []
    for row in a:
        acc = [0] * c
        for x, bt in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, bt)]
        out.append(acc)
    return out


def _int_powers(a: list[list[int]], k: int):
    """A, A^2, ..., A^k of a square integer matrix a, lazily: one _int_mul per power after the first."""
    return accumulate(repeat(a, k), lambda power, _: _int_mul(power, a, len(a)))


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _integer_scaled(a) -> tuple[int, list[list[int]]]:
    """(d, d*a) for d the lcm of the denominators of a, so that d*a is an integer matrix (a polynomial p as [p])."""
    types = set(map(type, chain.from_iterable(a)))  # one scan: an int matrix passes through, a float is refused
    if types <= {int}:
        return 1, [list(row) for row in a]
    if not types <= {int, Fraction}:  # as_integer_ratio would read a float's binary value
        frac(next((x for x in chain.from_iterable(a) if isinstance(x, float)), 0))  # frac raises on a float
    ratios = [[x.as_integer_ratio() for x in row] for row in a]
    d = lcm(*{q for row in ratios for _, q in row})
    if d == 1:
        return 1, [[p for p, _ in row] for row in ratios]
    return d, [[p * (d // q) for p, q in row] for row in ratios]


class _Echelon:
    """Fraction-free Gauss-Jordan elimination (Bareiss), one integer row at a time.

    The kept rows span the rows inserted so far.  Each is zero before its
    pivot column and at the other pivot columns, and equals d, the last
    pivot, at its own: divided by d and sorted by pivot they are the rref.
    rank counts them, solve and inverse read them, and kernel gives d times
    the nullspace basis in ints.
    """

    def __init__(self, m=()):
        """The elimination of the rows of m, scaled to integers first (which changes neither rank nor kernel)."""
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.d = 1
        for row in _integer_scaled(m)[1]:
            self.insert(row)

    def insert(self, v: list[int]) -> bool:
        """Eliminate the integer row v; keep what remains, and return whether v was independent.

        v becomes w = d*v - sum_k v[c_k]*row_k, the row the batch elimination
        would reach.  If w != 0, with p = w[c] at its first nonzero column c,
        each kept row becomes (p*row - row[c]*w) // d, exact by Sylvester's
        identity, and w joins them with pivot c.
        """
        d = self.d
        w = v if d == 1 else [d * x for x in v]  # rows are replaced, never changed in place
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        c = next(compress(count(), w), None)
        if c is None:
            return False
        p = w[c]
        rows = self.rows
        for k, row in enumerate(rows):
            f = row[c]
            if f or p != d:
                rows[k] = [(p * x - f * y) // d for x, y in zip(row, w)]
        rows.append(w)
        self.pivots.append(c)
        self.d = p
        return True

    def kernel(self, nc: int) -> list[list[int]]:
        """d times the nullspace basis for nc columns: per free column f, d at f and -row[f] at each pivot."""
        rows = dict(zip(self.pivots, self.rows))
        free = [f for f in range(nc) if f not in rows]
        return [[-rows[c][f] if c in rows else self.d * (c == f) for c in range(nc)] for f in free]


def rank(m: Matrix) -> int:
    """Rank: the number of rows the fraction-free elimination keeps."""
    return len(_Echelon(m).rows)


def nullspace(m: Matrix) -> list[Vector]:
    """Deterministic kernel basis, Fraction vectors for a Fraction or int m: one per free column, unit there.

    Raises ValueError on a matrix with no rows, which carries no column count.
    """
    if not m:
        raise ValueError("nullspace of a matrix with no rows: the column count is unknown")
    e = _Echelon(m)
    return [[Fraction(x, e.d) for x in v] for v in e.kernel(len(m[0]))]


def _solve_augmented(a: Matrix, right: Matrix) -> Matrix:
    """The right block of the echelon rows of [a | right], sorted by pivot, over d; for square nonsingular a only."""
    n = len(a)
    if len(right) != n or any([len(row) != n for row in a]):
        widths = "/".join(map(str, sorted({len(row) for row in a})))
        raise ValueError(f"not a square system: a {n}x{widths} matrix and a right-hand side of length {len(right)}")
    e = _Echelon([row + extra for row, extra in zip(a, right)])
    if sorted(e.pivots) != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(x, e.d) for x in row[n:]] for _, row in sorted(zip(e.pivots, e.rows))]


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a square nonsingular system exactly; raises on singular input."""
    return [row[0] for row in _solve_augmented(a, [[bv] for bv in b])]


def inverse(a: Matrix) -> Matrix:
    return _solve_augmented(a, identity(len(a)))


def charpoly(a: Matrix) -> Poly:
    """det(lambda*I - a), lowest degree first, monic: coefficient k is that of _int_charpoly(d*a) over d^(n-k)."""
    d, ai = _integer_scaled(a)
    return [Fraction(c, d ** (len(a) - k)) for k, c in enumerate(_int_charpoly(ai)[0])]


def _int_charpoly(a: list[list[int]]) -> tuple[list[int], list[list[list[int]]]]:
    """(P, [A, ..., A^h]): det(t*I - A) = sum_k P_k t^k of a square integer matrix A, and the powers formed.

    Newton's identities: with p_k = tr(A^k) and c_k = P_(n-k), k*c_k =
    -(p_k + sum_(0<m<k) c_m p_(k-m)), and every division is exact.  Only A,
    ..., A^h, h = ceil(n/2), are formed: p_k for k <= h is a trace, and
    p_(h+j) = tr(A^h A^j) the dot product of A^h with the transpose of A^j,
    entry by entry.
    """
    n = len(a)
    powers = list(_int_powers(a, max((n + 1) // 2, 1)))  # A^1, ..., A^h (A alone at n = 0)
    top = list(chain.from_iterable(powers[-1]))
    sums = [sum([m[i][i] for i in range(n)]) for m in powers]  # p_1, ..., p_h
    sums += [sum(map(mul, top, chain.from_iterable(zip(*m)))) for m in powers[: n - len(powers)]]  # ..., p_n
    coeffs = [1]  # c_0, c_1, ...
    for k in range(1, n + 1):
        c, rem = divmod(-sum(map(mul, coeffs, reversed(sums[:k]))), k)
        if rem:
            raise RuntimeError(f"Newton's identity {k} left remainder {rem} on an integer matrix")
        coeffs.append(c)
    return coeffs[::-1], powers


def invariant_factors(a: Matrix) -> list[Poly]:
    """The monic non-unit invariant factors f_1 | ... | f_k of a, smallest first.

    Works on the integer matrix A = d*a (d the lcm of the denominators of
    a).  A Krylov basis is built block by block from (1, 2, ..., n), then
    e_1, e_2, ...: each block v, Av, A^2 v, ... stops at its first power
    that depends on the basis so far, which the incremental elimination
    decides.  The dense start keeps the blocks, and so the relation matrix,
    few where unit vectors alone would split A into many short blocks.  With
    K the nonsingular matrix of the basis columns, the vector of
    nullspace([K | tails]) with its unit at the tail A^m_j v_j writes that
    tail over the basis, which gives the relation g_j(A) v_j = sum_(l<j)
    h_lj(A) v_l, scaled to ints.  The Smith form of the relation matrix has
    A's invariant factors, monic by Gauss's lemma, on its diagonal, and f(t)
    of A maps back to f(d t)/d^deg(f) for a.  Raises RuntimeError unless the
    degrees sum to n and the product equals charpoly(A), both in ints.
    """
    n = len(a)
    d, ai = _integer_scaled(a)
    basis: list[list[int]] = []  # Krylov vectors A^i v_j, block after block
    span = _Echelon()
    sizes: list[int] = []
    tails: list[list[int]] = []
    for v in [list(range(1, n + 1))] + [[int(i == j) for i in range(n)] for j in range(n)]:
        if len(basis) == n:
            break
        if not span.insert(v):
            continue
        start = len(basis)
        while True:
            basis.append(v)
            v = [sum(map(mul, row, v)) for row in ai]
            if not span.insert(v):
                break
        sizes.append(len(basis) - start)
        tails.append(v)
    offsets = [sum(sizes[:j]) for j in range(len(sizes))]
    relations = []
    for j, v in enumerate(nullspace(list(zip(*basis, *tails)))):
        _, (v,) = _integer_scaled([v])
        rel = [v[off : off + s] for off, s in zip(offsets, sizes)]
        rel[j].append(v[n + j])
        relations.append([poly_trim(p) for p in rel])
    factors = [f for f in _smith_diagonal(relations) if len(f) > 1]
    if sum(len(f) - 1 for f in factors) != n or reduce(_int_poly_mul, factors, [1]) != _int_charpoly(ai)[0]:
        raise RuntimeError("invariant factors disagree with the characteristic polynomial")
    return [[Fraction(c, d ** (len(f) - 1 - i)) for i, c in enumerate(f)] for f in factors]


def _smith_diagonal(m: list[list[list[int]]]) -> list[list[int]]:
    """The Smith diagonal over Q[t] of a nonsingular square integer polynomial matrix: primitive, lead > 0.

    Diagonalizes first: at each step an entry of least degree becomes the
    pivot, and each entry e of its column and row is pseudo-divided, s*e =
    q*pivot + r, until every remainder is zero (_reduced).  Among pivots of
    one degree the one with the fewest coefficient bits wins, since a large
    pivot inflates every row it reduces.  Then each pair of diagonal entries
    (a, b) becomes (gcd(a, b), ab/gcd(a, b)), which leaves a divisibility chain.
    """
    m = [row[:] for row in m]
    k = len(m)
    s = 0
    while s < k:
        _, _, i, j = min(
            (len(m[i][j]), sum(map(int.bit_length, m[i][j])), i, j) for i in range(s, k) for j in range(s, k) if m[i][j]
        )
        m[s], m[i] = m[i], m[s]
        for row in m[s:]:
            row[s], row[j] = row[j], row[s]
        clean = True
        for _ in range(2):  # the pivot's column by row operations, then its row as a column of the transpose
            for row in m[s + 1 :]:
                if row[s]:
                    t, q, r = _int_divmod(row[s], m[s][s])
                    row[s:] = _reduced(t, row[s:], q, m[s][s:])
                    clean = clean and not r
            m = [list(col) for col in zip(*m)]
        if clean:
            s += 1
    diag = [_int_gcd(m[s][s], []) for s in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if len(diag[i]) > 1:
                g = _int_gcd(diag[i], diag[j])
                diag[i], diag[j] = g, _int_gcd(_int_poly_mul(_int_divmod(diag[i], g)[1], diag[j]), [])
    return diag


def _reduced(s: int, xs: list[list[int]], q: list[int], ys: list[list[int]]) -> list[list[int]]:
    """The row (or column) xs made s*xs - q*ys against the pivot's ys, divided by its content."""
    out = [
        poly_trim([s * a - b for a, b in zip_longest(x, _int_poly_mul(q, y) if y else [], fillvalue=0)])
        for x, y in zip(xs, ys)
    ]
    g = gcd(*chain.from_iterable(out))
    return out if g < 2 else [[c // g for c in p] for p in out]


# ---------------------------------------------------------------------------
# dense polynomials over Q


def poly_trim(p: Poly) -> Poly:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p if k == len(p) else p[:k]


def poly_deg(p: Poly) -> int:
    return len(p) - 1


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0)) for i in range(n)]
    return poly_trim(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, [-x for x in q])


def poly_mul(p: Poly, q: Poly) -> Poly:
    """pq: the convolution of the integer scalings d_p*p and d_q*q, over d_p*d_q."""
    if not p or not q:
        return []
    dp, (pi,) = _integer_scaled([p])
    dq, (qi,) = _integer_scaled([q])
    return [Fraction(x, dp * dq) for x in poly_trim(_int_poly_mul(pi, qi))]


def _int_poly_mul(p: list[int], q: list[int]) -> list[int]:
    """The convolution of two nonzero integer coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    k = len(q)
    for i, x in enumerate(p):
        if x:
            out[i : i + k] = [s + x * y for s, y in zip(out[i : i + k], q)]
    return out


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) of p by q: d_q*T/(s*d_p) and R/(s*d_p) for s*P = T*Q + R on P = d_p*p, Q = d_q*q."""
    dp, (pi,) = _integer_scaled([poly_trim(p)])
    dq, (qi,) = _integer_scaled([poly_trim(q)])
    s, quo, r = _int_divmod(pi, qi)
    den = s * dp
    return [Fraction(dq * x, den) for x in quo], [Fraction(x, den) for x in r]  # both end in a nonzero entry


def _int_divmod(p: list[int], q: list[int]) -> tuple[int, list[int], list[int]]:
    """(s, T, R) with s*P = T*Q + R, s > 0 and deg R < deg Q, for trimmed integer lists P and Q != 0.

    From s = 1, T = 0, R = P, a step clears the top t of R with the lead c
    of Q, after scaling R, T and s by |c|/gcd(c, t) when c does not divide t.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, top = q[-1], len(q) - 1
    r, quo, s = list(p), [0] * max(len(p) - top, 0), 1
    while len(r) > top:
        t = r[-1]
        if t % lead:
            m = abs(lead) // gcd(lead, t)
            r, quo, s, t = [m * x for x in r], [m * x for x in quo], s * m, t * m
        shift = len(r) - 1 - top
        quo[shift] = c = t // lead
        r[shift:] = [x - c * y for x, y in zip(r[shift:], q)]  # the top becomes 0
        while r and not r[-1]:
            r.pop()
    return s, quo, r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) of two trimmed integer lists, primitive with a positive lead ([] for two zeros).

    A primitive remainder sequence divides each pseudo-remainder by its content
    (Collins, J. ACM 14, 1967), where Euclid over Q lets the coefficients grow.
    """
    while b:
        a, b = b, _primitive(_int_divmod(a, b)[2])
    g = gcd(*a) if a and a[-1] > 0 else -gcd(*a)
    return [x // g for x in a]


def _int_squarefree(p: list[int]) -> list[int]:
    """P over gcd(P, P') for a trimmed nonzero integer list P, primitive: the same roots, each once (monic if P is)."""
    return _primitive(_int_divmod(p, _int_gcd(p, poly_deriv(p)))[1])


def _primitive(p: list[int]) -> list[int]:
    """An integer coefficient list divided by its content, the positive gcd of its entries."""
    g = gcd(*p)
    return [x // g for x in p]


def poly_xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g and cofactors (g, u, v) with u*p + v*q = g."""
    a, b = poly_trim(p), poly_trim(q)
    ua, va = [Fraction(1)], []
    ub, vb = [], [Fraction(1)]
    while b:
        quo, rem = poly_divmod(a, b)
        a, b = b, rem
        ua, ub = ub, poly_sub(ua, poly_mul(quo, ub))
        va, vb = vb, poly_sub(va, poly_mul(quo, vb))
    if a:
        lead = frac(a[-1])
        a = [x / lead for x in a]
        ua = [x / lead for x in ua]
        va = [x / lead for x in va]
    return a, ua, va


def poly_deriv(p: Poly) -> Poly:
    return poly_trim([i * p[i] for i in range(1, len(p))])


def poly_eval(p: Poly, x):
    """p(x) by Horner's rule, in the ring of x and the coefficients of p."""
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def poly_eval_matrix(p: Poly, a: Matrix) -> Matrix:
    """p(a), the Fraction view of _int_poly_eval_matrix on A = d*a and its table A, ..., A^s, s = isqrt(deg p + 1).

    That is s - 1 + floor(deg p / s) products, about 2 sqrt(deg p), where Horner makes deg p.
    """
    d, ai = _integer_scaled(a)
    dp, (pi,) = _integer_scaled([p])
    scale, out = _int_poly_eval_matrix(pi, d, list(_int_powers(ai, max(isqrt(len(pi)), 1))))
    den = dp * scale
    zero = Fraction(0)
    return [[Fraction(x, den) if x else zero for x in row] for row in out]


def _int_poly_eval_matrix(p: list[int], d: int, powers: list[list[list[int]]]) -> tuple[int, list[list[int]]]:
    """(d^m, S) with S = sum_k p_k d^(m-k) A^k = d^m p(A/d), m = deg p, from the table powers = [A, ..., A^s].

    Paterson and Stockmeyer (SIAM J. Comput. 2, 1973): p(t) = sum_j B_j(t) t^(js)
    with deg B_j < s, each B_j(A) a weighted sum of the table, and Horner in
    A^s: floor(m/s) products, at most one on charpoly's table for m < n.
    """
    n, s, m = len(powers[0]), len(powers), len(p) - 1
    w = [c * d ** (m - k) for k, c in enumerate(p)]
    out = [[0] * n for _ in range(n)]
    top = m // s
    for j in range(top, -1, -1):  # none for p = 0
        if j < top:
            out = _int_mul(out, powers[-1], n)
        block = w[j * s : (j + 1) * s]
        for c, power in zip(block[1:], powers):
            if c:
                out = [[x + c * y for x, y in zip(row, pw)] for row, pw in zip(out, power)]
        for i in range(n):
            out[i][i] += block[0]
    return d ** max(m, 0), out


def poly_compose_mod(p: Poly, s: Poly, m: Poly) -> Poly:
    """p(s) reduced modulo m: the Fraction view of _int_compose_mod on the integer scalings of p, s and m."""
    dp, (pi,) = _integer_scaled([p])
    ds, (si,) = _integer_scaled([poly_trim(s)])
    e, out = _int_compose_mod(pi, dp, si, ds, _integer_scaled([poly_trim(m)])[1][0])
    return [Fraction(x, e) for x in out]


def _int_compose_mod(p: list[int], dp: int, s: list[int], ds: int, m: list[int]) -> tuple[int, list[int]]:
    """(e, R), e > 0 and gcd(e, R) = 1, with (p/dp)(s/ds) = R/e modulo m, by Horner on the value R/e.

    A step reduces R*s + c*e*ds, over e*ds, modulo m, and cancels the gcd of
    the denominator and the remainder.
    """
    out, e = [], 1
    for c in reversed(p):
        step = _int_poly_mul(out, s) if out and s else [0]
        step[0] += c * e * ds
        t, _, r = _int_divmod(poly_trim(step), m)
        e *= ds * t
        g = gcd(e, *r)
        out, e = [x // g for x in r], e // g
    g = gcd(e * dp, *out)
    return e * dp // g, [x // g for x in out]


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots of p with multiplicities, zero first and then ascending, and the root-free cofactor.

    With the zero roots stripped and p scaled to integers a_n t^n + ... + a_0,
    each rational root is y/a_n for an integer root y of the monic integer
    P(y) = a_n^(n-1) p(y/a_n).  Sturm bisection on the squarefree part of P
    finds the y, and P is deflated in ints, exactly as it is monic.
    """
    q = poly_trim(list(p))
    if not q:
        raise ValueError("zero polynomial")
    k = next(i for i, c in enumerate(q) if c)
    roots, q = [(Fraction(0), k)] if k else [], q[k:]
    if len(q) <= 1:
        return roots, q
    d, (ip,) = _integer_scaled([q])
    n, lead = len(ip) - 1, ip[-1]
    big = [c * lead ** (n - 1 - i) for i, c in enumerate(ip[:-1])] + [1]
    candidates = _unit_intervals_with_roots(_int_squarefree(big))
    for y in sorted(candidates, reverse=lead < 0):  # ascending y/a_n
        mult = 0
        while len(big) > 1:
            *quo, value = accumulate(reversed(big), lambda acc, c: acc * y + c)  # Horner: P / (t - y), then P(y)
            if value:
                break
            big, mult = quo[::-1], mult + 1
        if mult:
            roots.append((Fraction(y, lead), mult))
    # what is left of P, of degree m, is a_n^(m-1) d cofactor(y/a_n)
    return roots, [Fraction(c * lead, d * lead ** (len(big) - 1 - i)) for i, c in enumerate(big)]


def _unit_intervals_with_roots(s: list[int]) -> list[int]:
    """The integers y with a root of the squarefree monic integer s in (y - 1, y].

    Sturm: on the chain of s, s' and the negated primitive pseudo-remainders,
    the drop in sign variations from a to b counts the distinct roots in
    (a, b].  Halving from a root bound takes O(coefficient bits) steps per root.
    """
    sturm = [s, poly_deriv(s)]
    while sturm[-1]:  # -prim(R) is a positive multiple of -(sturm[-2] mod sturm[-1]), so every sign stays
        sturm.append([-x for x in _primitive(_int_divmod(sturm[-2], sturm[-1])[2])])
    sturm.pop()

    def variations(y: int) -> int:
        signs = [v > 0 for v in [poly_eval(f, y) for f in sturm] if v]
        return sum([a != b for a, b in zip(signs, signs[1:])])

    # 2^(1 + max_i ceil(bitlen(a_(m-i))/i)) exceeds Fujiwara's bound 2 max_i |a_(m-i)|^(1/i) (1916) on the roots
    bound = 2 ** (1 + max([-(-c.bit_length() // i) for i, c in enumerate(reversed(s[:-1]), start=1)]))
    found = []
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo > vhi and hi - lo == 1:
            found.append(hi)
        elif vlo > vhi:
            mid = (lo + hi) // 2
            vmid = variations(mid)
            stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return found
