"""Abstract root systems for the simple Cartan types A through G.

Roots are integer coefficient vectors over the simple roots.  The positive
roots are generated height by height through root strings.  Each carries its
pairings p_i with the simple coroots and its string depths r_i, and beta +
alpha_i is a root iff r_i > p_i: the alpha_i-string through beta runs from
beta - r_i alpha_i to beta + (r_i - p_i) alpha_i (Humphreys, Introduction to
Lie Algebras, 9.4; Bourbaki, Lie VI 1.3).  The negative roots are their
negatives.  Built roots skip the checks that Root(...) makes on every vector
a caller gives.  Simple-root indices are 1-based throughout the public API
(Bourbaki numbering, with the branch node of E-types numbered 2).

The Weyl group acts through the Cartan matrix alone.  One integer chamber
walk gives the longest element together with the diagram involution -w0 (it
walks -(1, 2, ..., n) in fundamental-weight coordinates) and the dominant
representative of a real torus element (it walks the simple-root values).
simple_root_values is the one product of the Cartan matrix with coroot
coordinates.

Every root pairing <v, alpha_i^vee> = sum_j v_j a_ji is column i of the
Cartan matrix against v, in integers.  It gives the simple reflections,
coroot_pairing and orthogonality to a root, so no invariant form is needed
and Fractions appear only in torus coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

Coeffs = tuple[int, ...]
RatVector = tuple[Fraction, ...]

_RANK_CONSTRAINTS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanType(namedtuple("CartanType", "family rank")):
    """A simple Cartan family letter plus rank, validated on construction."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace goes through _make

    def __new__(cls, family: str, rank: int):
        if family not in _RANK_CONSTRAINTS:
            raise ValueError(f"unknown Cartan family {family!r}; expected one of A-G")
        if type(rank) is not int:  # bool too: True would print as ATrue and build A1
            raise TypeError(f"rank {rank!r} is a {type(rank).__name__}; give an int")
        lo, hi = _RANK_CONSTRAINTS[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else (f"= {lo}" if lo == hi else f"in {{{lo}..{hi}}}")
            raise ValueError(f"family {family} requires rank {bound}, got {rank}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self):
        return f"{self.family}{self.rank}"


class Root(namedtuple("Root", "coeffs")):
    """An integer vector over the simple roots, uniformly signed and nonzero."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace goes through _make

    def __new__(cls, coeffs: Coeffs):
        coeffs = tuple(coeffs)  # a list would compare unequal to the tuple and leave the root unhashable
        if not any(coeffs):
            raise ValueError("zero vector is not a root")
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            raise ValueError(f"mixed-sign coefficients {coeffs} are not a root")
        # tuple.__new__ directly: the generated namedtuple __new__ would be one more call per root
        return tuple.__new__(cls, (coeffs,))

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def __neg__(self) -> "Root":
        return _root(tuple([-c for c in self.coeffs]))


def _root(coeffs: Coeffs) -> Root:
    """A Root without the checks of Root(...), for vectors that are roots by construction."""
    return tuple.__new__(Root, (coeffs,))


class RootSystem(namedtuple("RootSystem", "ctype cartan_matrix roots positive_roots")):
    """Full root data for one Cartan type.

    cartan_matrix[i][j] is the pairing of simple root i+1 against simple
    coroot j+1, so row i holds alpha_(i+1) in fundamental-weight coordinates.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.ctype.rank

    @property
    def dim_g(self) -> int:
        return self.rank + len(self.roots)

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)


class ParabolicData(namedtuple("ParabolicData", "subset delta_s delta_s_plus delta_s_minus dim_p dim_l dim_u")):
    """Root data of the standard parabolic attached to a set of simple roots."""

    __slots__ = ()


class ReducedWord(namedtuple("ReducedWord", "letters")):
    """A word in simple reflections; letters apply left to right."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # namedtuple's _make checks len(), the letter count

    def __len__(self):
        return len(self.letters)


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _cartan_matrix(ctype: CartanType) -> tuple[Coeffs, ...]:
    fam, n = ctype.family, ctype.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain_edge(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            chain_edge(i, i + 1)
        if fam == "B" and n >= 2:
            a[n - 2][n - 1] = -2  # alpha_n short
        if fam == "C" and n >= 2:
            a[n - 1][n - 2] = -2  # alpha_n long
    elif fam == "D":
        for i in range(n - 3):
            chain_edge(i, i + 1)
        chain_edge(n - 3, n - 2)
        chain_edge(n - 3, n - 1)
    elif fam == "E":
        for i, j in _E8_EDGES:
            if i <= n and j <= n:
                chain_edge(i - 1, j - 1)
    elif fam == "F":
        chain_edge(0, 1)
        chain_edge(2, 3)
        a[1][2] = -2  # alpha_3 short
        a[2][1] = -1
    elif fam == "G":
        a[0][1] = -1  # alpha_1 short
        a[1][0] = -3
    return tuple([tuple(row) for row in a])


def _pairing(cartan, i0: int, v):
    """<v, alpha_(i0+1)^vee>: column i0 of the Cartan matrix against v."""
    total = 0
    for j, c in enumerate(v):
        if c:
            total += c * cartan[j][i0]
    return total


def _reflect_coeffs(cartan, i0: int, v):
    """Apply the simple reflection at 0-based index i0 to a coefficient vector."""
    w = list(v)
    w[i0] -= _pairing(cartan, i0, v)
    return tuple(w)


def build_root_system(ctype: CartanType) -> RootSystem:
    """Generate the positive roots height by height, then the negatives.

    Each root beta carries its pairings p_i = <beta, alpha_i^vee> and string
    depths r_i, the largest k with beta - k alpha_i a root.  The alpha_i-string
    through beta ends at beta + (r_i - p_i) alpha_i (Humphreys 9.4; Bourbaki,
    Lie VI 1.3), so beta + alpha_i is a root iff r_i > p_i.  It adds row i of
    the Cartan matrix to p and has depth r_i + 1 at i, 0 where no parent sets one.
    """
    n = ctype.rank
    cartan = _cartan_matrix(ctype)
    level = {tuple([int(j == i) for j in range(n)]): (cartan[i], [0] * n) for i in range(n)}
    positive: list[Root] = []
    while level:
        ordered = sorted(level)
        positive += [_root(c) for c in ordered]
        nxt: dict[Coeffs, tuple[Coeffs, list[int]]] = {}
        for beta in ordered:
            pairings, depths = level[beta]
            for i, p in enumerate(pairings):
                if depths[i] > p:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if up not in nxt:
                        nxt[up] = (tuple([x + a for x, a in zip(pairings, cartan[i])]), [0] * n)
                    nxt[up][1][i] = depths[i] + 1
        level = nxt
    return RootSystem(
        ctype=ctype,
        cartan_matrix=cartan,
        roots=tuple([-r for r in reversed(positive)] + positive),
        positive_roots=tuple(positive),
    )


def _check_index(rs: RootSystem, i: int) -> int:
    if type(i) is not int:  # bool too: True would pass as index 1
        raise TypeError(f"simple-root index {i!r} is a {type(i).__name__}; give an int")
    if not 1 <= i <= rs.rank:
        raise IndexError(f"simple-root index {i} out of range 1..{rs.rank}")
    return i - 1


def _check_length(rs: RootSystem, v):
    if len(v) != rs.rank:
        raise ValueError("vectors must have length equal to the rank")
    return v


def coroot_pairing(rs: RootSystem, i: int, v) -> int:
    """<v, alpha_i^vee> = sum_j v_j a_ji, in the ring of v; the Cartan integer a_ji when v is alpha_j."""
    return _pairing(rs.cartan_matrix, _check_index(rs, i), _check_length(rs, v))


def simple_root_values(rs: RootSystem, coords) -> tuple:
    """alpha_i(h) for every simple root, h given by its coordinates over the simple coroots."""
    if len(coords) != rs.rank:
        raise ValueError(f"torus element has {len(coords)} coordinates, rank is {rs.rank}")
    return tuple([sum([a * c for a, c in zip(row, coords) if a], Fraction(0)) for row in rs.cartan_matrix])


def _chamber_walk(rows, v, limit: int) -> tuple[list, list[int]]:
    """Walk v to the dominant chamber by the simple reflection at the least negative index.

    s_i sends v to v - v_i * rows[i], where rows[i] is alpha_i in the
    coordinates of v.  Returns the dominant vector and the 1-based letters;
    raises RuntimeError if v is not dominant after limit steps.
    """
    v = list(v)
    letters: list[int] = []
    while True:
        i = next((k for k, x in enumerate(v) if x < 0), None)
        if i is None:
            return v, letters
        if len(letters) == limit:
            raise RuntimeError(f"chamber walk is not dominant after {limit} steps")
        c = v[i]
        v = [x - c * r for x, r in zip(v, rows[i])]
        letters.append(i + 1)


def reflect_root(rs: RootSystem, i: int, r: Root) -> Root:
    i0 = _check_index(rs, i)
    return Root(_reflect_coeffs(rs.cartan_matrix, i0, _check_length(rs, r.coeffs)))


def weight_leq(rs: RootSystem, beta, gamma) -> bool:
    """True iff gamma - beta is a nonnegative integer combination of simple roots."""
    beta, gamma = _check_length(rs, tuple(beta)), _check_length(rs, tuple(gamma))
    for b, g in zip(beta, gamma):
        diff = g - b
        if type(diff) is not int:
            if type(diff) is not Fraction:  # a float has no exact difference
                raise TypeError(f"coordinates {b!r} and {g!r} give a {type(diff).__name__}; give ints or Fractions")
            if diff.denominator != 1:
                return False
        if diff < 0:
            return False
    return True


def maximal_root(rs: RootSystem) -> Root:
    """The unique root dominating every root in the weight order."""
    top_height = max(r.height for r in rs.positive_roots)
    candidates = [r for r in rs.positive_roots if r.height == top_height]
    if len(candidates) != 1:
        raise RuntimeError(f"no unique maximal root for {rs.ctype}; is it irreducible?")
    theta = candidates[0]
    for r in rs.roots:
        if not weight_leq(rs, r.coeffs, theta.coeffs):
            raise RuntimeError(f"height-maximal root {theta.coeffs} fails to dominate {r.coeffs}")
    return theta


def _w0_walk(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of w0 and sigma = -w0 on the simple roots, from one chamber walk.

    -lambda = -(1, 2, ..., n) in fundamental-weight coordinates is regular and
    antidominant like -rho, so its walk has the letters of -rho, and it ends at
    w0.(-lambda) = sum_i i * omega_sigma(i): sigma(j) is the j-th coordinate.
    """
    end, letters = _chamber_walk(rs.cartan_matrix, range(-1, -rs.rank - 1, -1), rs.num_positive)
    if len(letters) != rs.num_positive or sorted(end) != list(range(1, rs.rank + 1)):
        raise RuntimeError("w0 walk did not take |positive roots| steps to a permutation of 1..n")
    return tuple(letters), tuple(end)


def longest_element(rs: RootSystem) -> ReducedWord:
    """Reduced word for the longest Weyl element: one letter per positive root, by greedy descent."""
    return ReducedWord(_w0_walk(rs)[0])


def apply_word_root(rs: RootSystem, word: ReducedWord, r: Root) -> Root:
    cartan, coeffs = rs.cartan_matrix, _check_length(rs, r.coeffs)
    _check_index(rs, min(word.letters, default=1))
    _check_index(rs, max(word.letters, default=1))
    for i in word.letters:
        coeffs = _reflect_coeffs(cartan, i - 1, coeffs)
    return Root(coeffs)


def dual_subset(rs: RootSystem, subset) -> frozenset[int]:
    """The involution S -> -w0.S on subsets of the simple roots."""
    sigma = _w0_walk(rs)[1]
    return frozenset([sigma[_check_index(rs, i)] for i in frozenset(subset)])


def parabolic_data(rs: RootSystem, subset) -> ParabolicData:
    """Root sets and dimensions of the standard parabolic, its Levi and unipotent parts."""
    s = frozenset(subset)
    s0 = {_check_index(rs, i) for i in s}
    delta_s = tuple([r for r in rs.roots if all(c == 0 or j in s0 for j, c in enumerate(r.coeffs))])
    plus = tuple([r for r in delta_s if r.is_positive])
    minus = tuple([r for r in delta_s if not r.is_positive])
    dim_l = rs.rank + len(delta_s)
    dim_u = rs.num_positive - len(plus)
    return ParabolicData(
        subset=s,
        delta_s=delta_s,
        delta_s_plus=plus,
        delta_s_minus=minus,
        dim_p=dim_l + dim_u,
        dim_l=dim_l,
        dim_u=dim_u,
    )


def solve_coroot_coords(rs: RootSystem, values) -> RatVector:
    """Coordinates over the simple coroots of the element with given simple-root values."""
    from . import linalg

    a = [list(row) for row in rs.cartan_matrix]
    return tuple(linalg.solve(a, [linalg.frac(v) for v in values]))


def dominant_values(rs: RootSystem, values) -> tuple:
    """The dominant point in the Weyl orbit of a real h, both given by simple-root values.

    s_i lowers alpha_k(h) by alpha_i(h) * a[k][i], so the walk runs on the
    columns of the Cartan matrix.
    """
    columns = list(zip(*rs.cartan_matrix))
    return tuple(_chamber_walk(columns, values, rs.num_positive)[0])
