"""Seeded random generators, slow oracles and a time bound shared by the test modules.

All samples are exact rational matrices.  Conjugation uses products of
integer shear matrices, so inverses are exact and determinants are 1; the
shears and the conjugation use their own arithmetic, not linalg's products.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

from lieorbits import linalg
from lieorbits.orbits import Partition, jordan_matrix, partitions
from lieorbits.rootsys import RootSystem
from lieorbits.sln import SlnElement, ad_matrix


def rand_traceless(rng: random.Random, n: int, bound: int = 4) -> SlnElement:
    """Random traceless matrix with small integer or half-integer entries."""
    rows = [[Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2))) for _ in range(n)] for _ in range(n)]
    rows[n - 1][n - 1] -= sum(rows[i][i] for i in range(n))
    return SlnElement.from_rows(rows)


@contextlib.contextmanager
def time_bound(seconds: float, what: str):
    """Raise TimeoutError in the block once it has run for seconds (SIGALRM: POSIX, main thread).

    A call that has become unbounded then fails the test instead of hanging the suite.
    """

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took more than {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def naive_rref(m):
    """(rref, pivot columns) by plain Fraction Gauss-Jordan, sharing no code with linalg: the oracle."""
    a = [[Fraction(x) for x in row] for row in m]
    nr, nc = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        top = a[piv]
        a[piv] = a[r]
        a[r] = top = [x / top[c] for x in top]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], top)]
        pivots.append(c)
    return a, pivots


def naive_rank(m) -> int:
    return len(naive_rref(m)[1])


def plain_mul(a, b):
    """The matrix product by sums of products, sharing no code with linalg.mat_mul."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def plain_poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def plain_poly_mul(p, q):
    """Schoolbook product of coefficient lists in plain Fraction arithmetic, sharing no code with linalg."""
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += Fraction(x) * y
    return plain_poly_trim(out)


def plain_poly_divmod(p, q):
    """(quotient, remainder) by schoolbook long division in plain Fraction arithmetic: the oracle."""
    q = plain_poly_trim(Fraction(x) for x in q)
    r = plain_poly_trim(Fraction(x) for x in p)
    quo = [Fraction(0)] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        c = r[-1] / q[-1]
        shift = len(r) - len(q)
        quo[shift] = c
        for i, y in enumerate(q):
            r[shift + i] -= c * y
        r = plain_poly_trim(r)
    return plain_poly_trim(quo), r


def plain_poly_gcd(p, q):
    """The monic gcd ([] for two zeros) by Euclid over Q with plain_poly_divmod: the oracle."""
    a, b = plain_poly_trim(Fraction(x) for x in p), plain_poly_trim(Fraction(x) for x in q)
    while b:
        a, b = b, plain_poly_divmod(a, b)[1]
    return [x / a[-1] for x in a]


def plain_poly_sub(p, q):
    return plain_poly_trim([Fraction(a) - b for a, b in itertools.zip_longest(p, q, fillvalue=0)])


def plain_poly_deriv(p):
    return plain_poly_trim([i * Fraction(c) for i, c in enumerate(p)][1:])


def plain_poly_eval(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def plain_rational_roots(p):
    """(roots, cofactor) as linalg.rational_roots gives them, in plain Fraction arithmetic: the oracle.

    Each rational root is y/a_n for an integer root y of the monic
    a_n^(n-1) p(y/a_n), p scaled to integers; the candidates y come from
    Sturm bisection (plain_unit_intervals_with_roots) and each root is
    divided out of p by Fraction long division.
    """
    q = plain_poly_trim(p)
    if not q:
        raise ValueError("zero polynomial")
    roots = []
    k = next(i for i, c in enumerate(q) if c)
    q = q[k:]
    if k:
        roots.append((Fraction(0), k))
    if len(q) <= 1:
        return roots, q
    den = math.lcm(*[Fraction(c).denominator for c in q])
    ip = [int(c * den) for c in q]
    n, lead = len(ip) - 1, ip[-1]
    monic = [Fraction(c * lead ** (n - 1 - i)) for i, c in enumerate(ip[:-1])] + [Fraction(1)]
    for r in sorted([Fraction(y, lead) for y in plain_unit_intervals_with_roots(monic)]):
        mult = 0
        while len(q) > 1 and plain_poly_eval(q, r) == 0:
            q = plain_poly_divmod(q, [-r, Fraction(1)])[0]
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, q


def plain_unit_intervals_with_roots(p):
    """The integers y with a real root of the monic integer p in (y - 1, y]: the oracle.

    Sturm over Q: on the Euclidean chain of the squarefree part of p, the
    drop in sign variations from a to b counts the distinct roots in (a, b];
    bisection starts from the Cauchy bound 1 + max |coefficient|.
    """

    sturm = [plain_poly_divmod(p, plain_poly_gcd(p, plain_poly_deriv(p)))[0]]
    sturm.append(plain_poly_deriv(sturm[0]))
    while sturm[-1]:
        sturm.append([-c for c in plain_poly_divmod(sturm[-2], sturm[-1])[1]])
    sturm.pop()

    def variations(y):
        signs = [v > 0 for v in [plain_poly_eval(f, y) for f in sturm] if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in p)
    found = []
    stack = [(-bound - 1, variations(-bound - 1), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo > vhi and hi - lo == 1:
            found.append(hi)
        elif vlo > vhi:
            mid = (lo + hi) // 2
            vmid = variations(mid)
            stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return found


def plain_smith_diagonal(m):
    """Monic diagonal of the Smith form of a square nonsingular matrix over Q[t], in divisibility order: the oracle.

    Entries are Fraction coefficient lists.  At each step an entry of least
    degree (then fewest coefficient bits) becomes the pivot, made monic, and
    its row and column are reduced by Fraction long division until every
    remainder is zero; then each pair of diagonal entries (a, b) becomes
    (gcd(a, b), ab/gcd(a, b)).
    """
    m = [[plain_poly_trim(p) for p in row] for row in m]
    k = len(m)
    s = 0
    while s < k:
        _, _, i, j = min(
            (len(m[i][j]), sum(c.numerator.bit_length() + c.denominator.bit_length() for c in m[i][j]), i, j)
            for i in range(s, k)
            for j in range(s, k)
            if m[i][j]
        )
        m[s], m[i] = m[i], m[s]
        for row in m[s:]:
            row[s], row[j] = row[j], row[s]
        lead = m[s][s][-1]
        m[s][s:] = [[c / lead for c in p] for p in m[s][s:]]
        piv = m[s][s]
        clean = True
        for row in m[s + 1 :]:
            if row[s]:
                q, r = plain_poly_divmod(row[s], piv)
                row[s:] = [plain_poly_sub(x, plain_poly_mul(q, y)) for x, y in zip(row[s:], m[s][s:])]
                clean = clean and not r
        for j in range(s + 1, k):
            if m[s][j]:
                q, r = plain_poly_divmod(m[s][j], piv)
                for row in m[s:]:
                    if row[s]:
                        row[j] = plain_poly_sub(row[j], plain_poly_mul(q, row[s]))
                clean = clean and not r
        if clean:
            s += 1
    diag = [m[s][s] for s in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if len(diag[i]) > 1:
                g = plain_poly_gcd(diag[i], diag[j])
                diag[i], diag[j] = g, plain_poly_mul(plain_poly_divmod(diag[i], g)[0], diag[j])
    return diag


def plain_poly_compose_mod(p, s, m):
    """p(s) modulo m by Horner on the coefficients of p, with the plain product and division above."""
    out = []
    for c in reversed(p):
        step = plain_poly_mul(out, s) + [Fraction(0)]  # room for the constant term
        step[0] += c
        out = plain_poly_divmod(step, m)[1]
    return out


def plain_poly_inverse_mod(a, m):
    """b with a*b = 1 modulo m and deg b < deg m, by the extended Euclid in plain Fraction arithmetic: the oracle.

    Each remainder r_i keeps r_i = s_i * a modulo m; the last nonzero one is a
    constant when a and m are coprime, and s_i over it is the inverse.
    """
    r0, r1 = plain_poly_trim(Fraction(c) for c in m), plain_poly_divmod(a, m)[1]
    s0, s1 = [], [Fraction(1)]
    while r1:
        quo, rem = plain_poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, plain_poly_sub(s0, plain_poly_mul(quo, s1))
    if len(r0) != 1:
        raise ValueError("not coprime")
    return [c / r0[0] for c in s0]


def plain_jordan_witness(p):
    """The semisimple witness of the Jordan-Chevalley split for the characteristic polynomial p: the oracle.

    With q = p / gcd(p, p') and u the inverse of q' modulo q, a Newton round
    composes q and u with s apart and reduces s - q(s)u(s) modulo p; rounds
    run from s = t until q(s) = 0 modulo p.  Plain Fraction arithmetic, not linalg.
    """
    p = plain_poly_trim(Fraction(c) for c in p)
    q = plain_poly_divmod(p, plain_poly_gcd(p, plain_poly_deriv(p)))[0]
    u = plain_poly_inverse_mod(plain_poly_deriv(q), q)
    s = [Fraction(0), Fraction(1)]
    for _ in range(len(p)):
        qs = plain_poly_compose_mod(q, s, p)
        if not qs:
            return s
        us = plain_poly_compose_mod(u, s, p)
        s = plain_poly_divmod(plain_poly_sub(s, plain_poly_mul(qs, us)), p)[1]
    raise RuntimeError("Newton iteration did not reach q(s) = 0")


def plain_poly_eval_matrix(p, a):
    """p(a) by Horner's rule with plain_mul."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        out = plain_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def mat_vec(a, v):
    """a times the column v, as linalg.mat_mul of a and a one-column matrix."""
    if not v:  # [] as a matrix has no rows to carry the one column
        return [Fraction(0)] * len(a)
    return [row[0] for row in linalg.mat_mul(a, [[x] for x in v])]


def naive_nullspace(m):
    """Kernel basis read off naive_rref: one vector per free column, unit there."""
    red, pivots = naive_rref(m)
    basis = []
    for f in [c for c in range(len(m[0])) if c not in pivots]:
        v = [Fraction(int(c == f)) for c in range(len(m[0]))]
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def jm_by_stages(e: SlnElement):
    """(h, y) of Jacobson-Morozov as lists of rows, by one elimination per chain length: the slow oracle.

    For k = d, ..., 1 (d the nilpotency index) one rref of the columns
    [ker e^(k-1) | the height-k layer of the chains so far | ker e^k] picks
    the new tops of length k, the kernel vectors at pivot columns.  With g
    the chain basis, each chain bottom first, h = g H g^-1 and y = g F g^-1
    for the standard H (weights s-1-2j) and F (weights (j+1)(s-1-j) below
    the diagonal).  Products, kernels and the inverse use plain Fraction
    arithmetic, not linalg.
    """
    n = e.n
    a = [list(row) for row in e.entries]
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    powers = [unit]
    while any(map(any, powers[-1])):
        if len(powers) > n + 1:
            raise ValueError("not nilpotent")
        powers.append(plain_mul(powers[-1], a))
    d = len(powers) - 1

    def chain_vector(j, v):
        return [row[0] for row in plain_mul(powers[j], [[x] for x in v])]

    kernels = [[]] + [naive_nullspace(p) for p in powers[1:]]
    tops = []
    for k in range(d, 0, -1):
        known = kernels[k - 1] + [chain_vector(s - k, v) for v, s in tops if s > k]
        _, pivots = naive_rref([list(row) for row in zip(*known, *kernels[k])])
        tops += [(kernels[k][p - len(known)], k) for p in pivots if p >= len(known)]
    cols = [chain_vector(s - 1 - j, v) for v, s in tops for j in range(s)]
    big_h = [[Fraction(0)] * n for _ in range(n)]
    big_f = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for _, s in tops:
        for j in range(s):
            big_h[off + j][off + j] = Fraction(s - 1 - 2 * j)
            if j + 1 < s:
                big_f[off + j + 1][off + j] = Fraction((j + 1) * (s - 1 - j))
        off += s
    g = [list(row) for row in zip(*cols)]
    red, pivots = naive_rref([row + unit_row for row, unit_row in zip(g, unit)])
    assert pivots == list(range(n))
    ginv = [row[n:] for row in red]
    return plain_mul(plain_mul(g, big_h), ginv), plain_mul(plain_mul(g, big_f), ginv)


def rand_unimodular(rng: random.Random, n: int, shears: int | None = None):
    """A product of integer shears and its exact inverse.

    Each shear I + c E_ij acts on g from the right (column j += c column i)
    and its inverse I - c E_ij on gi from the left (row i -= c row j).
    """
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    gi = [row[:] for row in g]
    for _ in range(shears if shears is not None else 2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randint(-2, 2)
        if i == j or c == 0:
            continue
        for row in g:
            row[j] += c * row[i]
        gi[i] = [x - c * y for x, y in zip(gi[i], gi[j])]
    return g, gi


def ad_nullity(x: SlnElement) -> int:
    """dim of the centralizer as the nullity of the (n^2-1)-square ad(x): the slow oracle."""
    return (x.n * x.n - 1) - linalg.rank(ad_matrix(x))


def conjugate(g, gi, x: SlnElement) -> SlnElement:
    return SlnElement.from_rows(plain_mul(g, plain_mul(x.to_matrix(), gi)))


def rand_partition(rng: random.Random, n: int) -> Partition:
    return rng.choice(partitions(n))


def rand_nilpotent(rng: random.Random, n: int) -> SlnElement:
    """Random conjugate of a random Jordan-type nilpotent."""
    g, gi = rand_unimodular(rng, n)
    return conjugate(g, gi, jordan_matrix(rand_partition(rng, n)))


def rand_rational_spectrum(rng: random.Random, n: int) -> SlnElement:
    """Random conjugate of an upper-triangular matrix with small integer spectrum."""
    diag = [rng.randint(-2, 2) for _ in range(n - 1)]
    diag.append(-sum(diag))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(diag[i])
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randint(-1, 1))
    g, gi = rand_unimodular(rng, n)
    return conjugate(g, gi, SlnElement.from_rows(rows))


def rand_jordan_type(rng: random.Random, n: int) -> SlnElement:
    """Random conjugate of a matrix with repeated eigenvalues and nilpotent blocks."""
    lam = rand_partition(rng, n)
    values = []
    pool = [-1, 0, 1, 2]
    rows = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for p in lam.parts:
        v = rng.choice(pool)
        values.extend([v] * p)
        for i in range(p - 1):
            rows[off + i][off + i + 1] = Fraction(1)
        off += p
    shift = Fraction(sum(values), n)
    off = 0
    for i in range(n):
        rows[i][i] = Fraction(values[i]) - shift
    g, gi = rand_unimodular(rng, n)
    return conjugate(g, gi, SlnElement.from_rows(rows))


def symmetrized_form(rs: RootSystem):
    """The invariant form on simple-root coordinates, long roots of squared length 2: the oracle.

    Returns form(u, v) = sum u_i v_j d_j a_ij, with d_j half the squared
    length of alpha_j.  d spreads along the Dynkin diagram by d_j a_ij = d_i a_ji
    from d_1 = 1 and is then scaled to maximum 1.
    """
    a = rs.cartan_matrix
    d = {0: Fraction(1)}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rs.rank):
            if j not in d and a[i][j]:
                d[j] = d[i] * a[j][i] / a[i][j]
                stack.append(j)
    top = max(d.values())
    d = {j: x / top for j, x in d.items()}

    def form(u, v) -> Fraction:
        return sum((x * y * d[j] * a[i][j] for i, x in enumerate(u) if x for j, y in enumerate(v) if y), Fraction(0))

    return form


def longest_word_by_rho(rs: RootSystem) -> tuple[int, ...]:
    """Letters of w0 from the Fraction walk of rho in simple-root coordinates: the slow oracle.

    rho is half the sum of the positive roots; each step reflects at the least
    index whose coroot pairing 2(alpha_i, rho)/(alpha_i, alpha_i), taken through
    the symmetrized form, is positive.
    """
    v = [Fraction(0)] * rs.rank
    for r in rs.positive_roots:
        for j, c in enumerate(r.coeffs):
            v[j] += Fraction(c, 2)
    form = symmetrized_form(rs)
    units = [[int(j == i) for j in range(rs.rank)] for i in range(rs.rank)]
    letters = []
    for _ in range(rs.num_positive + 1):
        for i, e in enumerate(units, start=1):
            pairing = 2 * form(e, v) / form(e, e)
            if pairing > 0:
                v[i - 1] -= pairing
                letters.append(i)
                break
        else:
            return tuple(letters)
    raise RuntimeError("rho walk took more than |positive roots| steps")


def dominant_by_coroot_walk(rs: RootSystem, coords) -> list[Fraction]:
    """Real coroot coordinates reflected into the dominant chamber on the coroot side: the slow oracle.

    Each step recomputes every simple-root value and subtracts the least-index
    negative one from its own coordinate.
    """
    coords = [Fraction(c) for c in coords]
    a = rs.cartan_matrix
    for _ in range(rs.num_positive + 1):
        vals = [sum((c * a[i][j] for j, c in enumerate(coords)), Fraction(0)) for i in range(rs.rank)]
        i = next((k for k, v in enumerate(vals) if v < 0), None)
        if i is None:
            return coords
        coords[i] -= vals[i]
    raise RuntimeError("coroot walk took more than |positive roots| steps")


def roots_by_reflection_closure(cartan) -> tuple[list, list]:
    """Every root by closure of the simple roots under the simple reflections: the slow oracle.

    s_i sends v to v - <v, alpha_i^vee> alpha_i, with <v, alpha_i^vee> =
    sum_j v_j cartan[j][i].  Returns the roots and the positive roots as
    coefficient tuples, each ordered by height and then by coefficients.
    """
    n = len(cartan)
    seen = {tuple([int(j == i) for j in range(n)]) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = list(v)
                w[i] -= sum(v[j] * cartan[j][i] for j in range(n))
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    ordered = sorted(seen, key=lambda c: (sum(c), c))
    return ordered, [c for c in ordered if sum(c) > 0]
