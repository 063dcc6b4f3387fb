"""Invariants of the principal sl2 decomposition, from root heights alone.

The neutral element of the principal triple acts on the algebra with
eigenvalue twice the height on each root line and zero on the Cartan part,
so the irreducible-summand dimensions d_1 <= ... <= d_r can be read off by
peeling maximal strings {-m, -m+2, ..., m} from that eigenvalue multiset.
The same dimensions also arise by transposing the height distribution of the
positive roots; both computations are run and must agree.  Their product
polynomial prod(1 + t^(d_j)) factors the Poincare polynomial of the compact
form of the corresponding adjoint group.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .rootsys import RootSystem


class ExponentData(namedtuple("ExponentData", "heights dims poly")):
    """Height distribution, summand dimensions, and their product polynomial.

    heights: (height, count) pairs over the positive roots, ascending;
    dims: d_1 <= ... <= d_r, all odd;
    poly: coefficients of prod(1 + t^d_j), ascending degree.
    """

    __slots__ = ()


def _dims_by_string_peeling(rs: RootSystem) -> list[int]:
    """Peel maximal eigenvalue strings off the ad_h spectrum, longest first."""
    spectrum: Counter[int] = Counter()
    for r in rs.roots:
        spectrum[2 * r.height] += 1
    spectrum[0] += rs.rank
    dims = []
    while spectrum:
        top = max(spectrum)
        for v in range(-top, top + 1, 2):
            if spectrum[v] <= 0:
                raise RuntimeError(
                    f"eigenvalue multiset is missing {v} while peeling a string of top {top}"
                )
            spectrum[v] -= 1
            if spectrum[v] == 0:
                del spectrum[v]
        dims.append(top + 1)
    return sorted(dims)


def _dims_by_height_transpose(rs: RootSystem) -> list[int]:
    """Exponents as the conjugate of the positive-root height distribution."""
    counts: Counter[int] = Counter(r.height for r in rs.positive_roots)
    top = max(counts)
    exps = []
    for j in range(1, counts[1] + 1):
        exps.append(sum(1 for k in range(1, top + 1) if counts[k] >= j))
    return sorted(2 * m + 1 for m in exps)


def exponents(rs: RootSystem) -> ExponentData:
    """Summand dimensions of the principal decomposition, doubly computed."""
    dims = _dims_by_string_peeling(rs)
    alt = _dims_by_height_transpose(rs)
    if dims != alt:
        raise RuntimeError(f"string peeling gave {dims} but the height transpose gave {alt}")
    if len(dims) != rs.rank:
        raise RuntimeError(f"expected {rs.rank} summands, found {len(dims)}")
    if sum(dims) != rs.dim_g:
        raise RuntimeError("summand dimensions do not add up to dim g")
    if any(d % 2 == 0 for d in dims):
        raise RuntimeError("every summand dimension must be odd")
    counts = Counter(r.height for r in rs.positive_roots)
    heights = tuple(sorted(counts.items()))
    poly = [1]
    for d in dims:
        nxt = poly + [0] * d
        for i, c in enumerate(poly):
            nxt[i + d] += c
        poly = nxt
    return ExponentData(heights=heights, dims=tuple(dims), poly=tuple(poly))


def poincare_polynomial(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients of prod(1 + t^(d_j)), ascending; palindromic, value 2^rank at 1."""
    return exponents(rs).poly
