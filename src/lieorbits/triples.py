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

Jacobson-Morozov takes its chain tops from one elimination of their
bottoms: a candidate top of a chain of length k is a basis vector v of
ker e^k, its bottom is e^(k-1) v, and the tops are the candidates whose
bottoms one elimination keeps, stages k = d, d - 1, ... in order.  Since
e^(k-1) maps ker e^k onto ker e ∩ im e^(k-1) with kernel ker e^(k-1), and the
height-k layer of the longer chains to their bottoms, v is independent of
ker e^(k-1), that layer and the earlier tops of its stage exactly when its
bottom is independent of the earlier pivots.  The chains are independent
because their bottoms are.  So the stages stop once the chains hold n
vectors: those span the space, and a top of a later stage would start a
chain independent of them.  h and y are integer products over one scaling
of the inverse chain basis, checked in ints by the relation test that
verify_matrix_triple runs, before any Fraction is built.  The construction
and the check read the integer forms that the elements carry.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from . import linalg
from .sln import SlnElement, _from_ints, _scaled

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
    """Exact check of all three defining bracket relations.

    Runs _relations_hold on x's integer form X = dx*x and on H, Y = dh*(h, y),
    dh the lcm of the form denominators of h and y.
    """
    n = t.x.n
    if not (n == t.h.n == t.y.n):
        raise ValueError("triple members must share a dimension")
    dx, x = t.x.entries.scaled
    dh, (h, y) = _scaled(t.h, t.y)
    return _relations_hold(x, h, y, dx, dh)


def _relations_hold(x: list[list[int]], h: list[list[int]], y: list[list[int]], dx: int, dh: int) -> bool:
    """The bracket relations of (x/dx, h/dh, y/dh) in ints: [x,y] = dx*h, [h,x] = 2dh*x and [h,y] = -2dh*y."""
    n = len(x)
    for a, b, want, c in ((x, y, h, dx), (h, x, x, 2 * dh), (h, y, y, -2 * dh)):
        ab, ba = linalg._int_mul(a, b, n), linalg._int_mul(b, a, n)
        if any(u - v != c * w for r, s, m in zip(ab, ba, want) for u, v, w in zip(r, s, m)):
            return False
    return True


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


def _from_columns(vectors) -> linalg.Matrix:
    """The matrix whose columns are the given vectors."""
    return [list(row) for row in zip(*vectors)]


def jacobson_morozov_sln(e: SlnElement) -> MatrixTriple:
    """Complete a nilpotent traceless matrix to an sl2-triple.

    The chains are built in ints from the powers of E = d*e (e's integer form,
    d the lcm of its denominators), which decide nilpotency (ValueError if e^n
    is not zero).  For k = m, m - 1, ... (m the nilpotency index), until the
    chains found have n vectors in all, the integer
    kernel basis of E^k, read off its fraction-free echelon (the last pivot
    times the basis with a unit at each free column), gives the candidate tops
    of length k, and one product with E^(k-1) their bottoms.  The tops are the
    candidates whose bottom is independent of every bottom before it, in one
    elimination of all bottoms (a deterministic choice).  That is the
    stage-by-stage kernel-filtration rule: e^(k-1) kills ker e^(k-1) and sends
    the height-k layer of the longer chains and the earlier tops of the stage
    to their bottoms, and a bottom that is no pivot lies in the span of those
    before it.

    With g the chain basis, bottom first, column j of a chain of length s is
    E^(s-1-j) v = d^(s-1-j) e^(s-1-j) v.  h scales it by s-1-2j, and f sends it
    to d(j+1)(s-1-j) times column j+1, where the factor d undoes the scaling;
    scaling a whole chain changes neither.  The bracket check also proves
    e = g J g^-1 (J the standard nilpotent, g the chains e^(s-1-j) v): both
    satisfy [h, x] = 2x and [x, f] = h, so their difference has ad h-weight 2
    and is killed by ad f, which is injective on the positive ad h-weights.
    With G^-1 = M/dg, M an integer matrix, h and f are (hcols*M)/dg and
    (fcols*M)/dg, checked in ints by _relations_hold against E = d*e.
    """
    if e.is_zero():  # the general path gives h = y = 0 too, through eliminations, products and the bracket check
        return MatrixTriple(x=e, h=e, y=e)
    n = e.n
    d, a = e.entries.scaled
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]  # E^k for E = d*e, up to the first zero
    for power in linalg._int_powers(a, n):
        powers.append(power)
        if linalg.mat_is_zero(power):
            break
    else:  # e^n is not zero
        raise ValueError("input must be nilpotent")
    depth = len(powers) - 1  # nilpotency index
    transposed = [list(zip(*m)) for m in powers[:-1]]  # row v times the transpose of E^k is E^k v
    span = linalg._Echelon()
    tops: list[tuple[list[int], int]] = []  # (integer top vector, chain length)
    for k in range(depth, 0, -1):
        basis = linalg._Echelon(powers[k]).kernel(n)  # scaled by the last pivot, which changes neither h nor f
        bottoms = linalg._int_mul(basis, transposed[k - 1], n)
        tops += [(v, k) for v, b in zip(basis, bottoms) if span.insert(b)]
        if sum([s for _, s in tops]) == n:  # the chains span the space
            break
    if sum([s for _, s in tops]) != n:
        raise RuntimeError("Jordan chain extraction did not exhaust the space")
    # E^k v for every top v of a chain longer than k, from one product per power, in top order
    images = [iter([v for v, _ in tops])]
    images += [iter(linalg._int_mul([v for v, s in tops if s > k], transposed[k], n)) for k in range(1, depth)]
    cols, hcols, fcols = [], [], []
    for v, s in tops:
        chain = [next(images[s - 1 - j]) for j in range(s)] + [[0] * n]
        for j in range(s):
            cols.append(chain[j])
            hcols.append([(s - 1 - 2 * j) * x for x in chain[j]])
            fcols.append([d * (j + 1) * (s - 1 - j) * x for x in chain[j + 1]])
    dg, ginv = linalg._integer_scaled(linalg.inverse(_from_columns(cols)))
    h, f = [linalg._int_mul(_from_columns(m), ginv, n) for m in (hcols, fcols)]
    if not _relations_hold(a, h, f, d, dg):
        raise RuntimeError("constructed triple violated the bracket relations")
    return MatrixTriple(x=e, h=_from_ints(h, dg), y=_from_ints(f, dg))
