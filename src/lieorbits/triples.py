"""Construction and verification of sl2-triples.

Covers three constructions: the bracket-relation checker for concrete matrix
triples, the principal triple attached to any root system (the torus element
evaluating to 2 on every simple root, expressed over the simple coroots), and
a constructive converse of the Jacobson-Morozov theorem for nilpotent
traceless matrices, built from an exact Jordan chain basis, which also gives
the principal triple of sl_n from the regular nilpotent (Collingwood and
McGovern, Nilpotent Orbits in Semisimple Lie Algebras, ch. 3).

The abstract principal triple never materializes root vectors: the bracket
relations reduce to the coefficient solve, checked exactly here, plus the
fact that the difference of two distinct simple roots is never a root.  That
holds for every Cartan type, because every root is a nonnegative or a
nonpositive combination of the simple roots (Kostant, Amer. J. Math. 81,
1959; Humphreys, Introduction to Lie Algebras and Representation Theory,
10.1), and Root refuses mixed signs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from . import linalg
from .sln import SlnElement, bracket

if TYPE_CHECKING:
    from .rootsys import RootSystem


class CorootVector(namedtuple("CorootVector", "coords")):
    """An element of the Cartan subalgebra, a tuple of coordinates over the simple coroots."""

    __slots__ = ()


class AbstractPrincipalTriple(namedtuple("AbstractPrincipalTriple", "h c")):
    """The neutral element h of the principal triple and its coroot coefficients."""

    __slots__ = ()


class MatrixTriple(namedtuple("MatrixTriple", "x h y")):
    """Candidate (x, h, y) for the bracket relations [x,y]=h, [h,x]=2x, [h,y]=-2y."""

    __slots__ = ()


def verify_matrix_triple(t: MatrixTriple) -> bool:
    """Exact check of all three defining bracket relations."""
    if not (t.x.n == t.h.n == t.y.n):
        raise ValueError("triple members must share a dimension")
    return (
        bracket(t.x, t.y).entries == t.h.entries
        and bracket(t.h, t.x).entries == (2 * t.x).entries
        and bracket(t.h, t.y).entries == (-2 * t.y).entries
    )


def kostant_principal(rs: RootSystem) -> AbstractPrincipalTriple:
    """The principal triple's h: the solve of alpha_i(h) = 2 over the coroots.

    The solve is checked exactly.  The triple then closes without structure
    constants, because alpha_i - alpha_j (i != j) has coefficients of both
    signs and so is never a root.
    """
    from .rootsys import simple_root_values, solve_coroot_coords

    try:
        coords = solve_coroot_coords(rs, [2] * rs.rank)
    except ValueError as exc:
        raise RuntimeError(f"Cartan matrix of {rs.ctype} is singular") from exc
    h = CorootVector(coords)
    if any([v != 2 for v in simple_root_values(rs, coords)]):
        raise RuntimeError("coefficient solve failed to give alpha(h) = 2")
    return AbstractPrincipalTriple(h=h, c=h.coords)


def principal_triple_sln(n: int) -> MatrixTriple:
    """The principal triple in the traceless n-by-n matrices: Jacobson-Morozov of the full superdiagonal.

    Its chain basis is the identity, so h is the integer string n-1, n-3,
    ..., 1-n on the diagonal and y the subdiagonal with weights i(n-i).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return jacobson_morozov_sln(SlnElement.from_rows([[int(j == i + 1) for j in range(n)] for i in range(n)]))


def _standard_block_images(g: linalg.Matrix, sizes: list[int]) -> tuple[linalg.Matrix, linalg.Matrix, linalg.Matrix]:
    """g*J, g*H and g*F for the block-diagonal standard triple (J, H, F) with one string per block size.

    J has ones on the superdiagonal of each block, H the weights s-1-2i on the
    diagonal and F the weights (i+1)(s-i-1) below it, so the products are
    column shifts and scalings of g and need no multiplication of matrices.
    """
    n = len(g)
    gj, gh, gf = linalg.zeros(n, n), linalg.zeros(n, n), linalg.zeros(n, n)
    off = 0
    for s in sizes:
        for i in range(s):
            c = off + i
            for r in range(n):
                gh[r][c] = (s - 1 - 2 * i) * g[r][c]
                if i > 0:
                    gj[r][c] = g[r][c - 1]
                if i + 1 < s:
                    gf[r][c] = (i + 1) * (s - i - 1) * g[r][c + 1]
        off += s
    return gj, gh, gf


def jacobson_morozov_sln(e: SlnElement) -> MatrixTriple:
    """Complete a nilpotent traceless matrix to an sl2-triple.

    The powers of e decide nilpotency (ValueError if e^n is not zero) and give
    a Jordan chain basis through the kernel filtration.  Working down from the
    largest chain length k, the columns of one matrix are the smaller kernel,
    the height-k layer of the chains already chosen, and then the basis of
    ker(e^k); the new chain tops are the basis vectors whose columns are rref
    pivot columns, i.e. the first ones independent of everything before them
    (a deterministic choice).  The standard triple for the resulting block
    sizes is then conjugated back through the chain basis g, so the bracket
    relations hold exactly and h has integer spectrum; g times a standard
    matrix is a column shift or scaling of g, which leaves three products of
    matrices.
    """
    n = e.n
    a = e.to_matrix()
    if e.is_zero():
        z = SlnElement.zero(n)
        return MatrixTriple(x=e, h=z, y=z)
    powers = [linalg.identity(n), a]
    while not linalg.mat_is_zero(powers[-1]):
        if len(powers) > n:  # e^n is not zero
            raise ValueError("input must be nilpotent")
        powers.append(linalg.mat_mul(powers[-1], a))
    d = len(powers) - 1  # nilpotency index
    kernels = [[] if k == 0 else linalg.nullspace(powers[k]) for k in range(d + 1)]
    tops: list[tuple[list[Fraction], int]] = []  # (top vector, chain length)
    for k in range(d, 0, -1):
        # candidates from ker(e^k) follow the known columns of this stage
        known = kernels[k - 1] + [linalg.mat_vec(powers[size - k], v) for v, size in tops if size > k]
        _, pivots = linalg.rref([list(row) for row in zip(*known, *kernels[k])])
        tops.extend((kernels[k][p - len(known)], k) for p in pivots if p >= len(known))
    sizes = [s for _, s in tops]
    if sum(sizes) != n:
        raise RuntimeError("Jordan chain extraction did not exhaust the space")
    cols: list[list[Fraction]] = []
    for v, s in tops:
        for j in range(s - 1, -1, -1):
            cols.append(linalg.mat_vec(powers[j], v))
    g = [[cols[j][i] for j in range(n)] for i in range(n)]
    gj, gh, gf = _standard_block_images(g, sizes)
    # g is invertible, so e*g == g*J is the same as e == g*J*g^-1
    if linalg.mat_mul(a, g) != gj:
        raise RuntimeError("chain basis does not conjugate the standard form to e")
    ginv = linalg.inverse(g)
    h = SlnElement.from_rows(linalg.mat_mul(gh, ginv))
    f = SlnElement.from_rows(linalg.mat_mul(gf, ginv))
    t = MatrixTriple(x=e, h=h, y=f)
    if not verify_matrix_triple(t):
        raise RuntimeError("constructed triple violated the bracket relations")
    return t
