"""Abstract root systems for the simple Cartan types A through G.

Roots are integer coefficient vectors over the simple roots, generated by
breadth-first closure of the simple roots under the simple reflections.
Simple-root indices are 1-based throughout the public API (Bourbaki
numbering, with the branch node of E-types numbered 2).

The Weyl group acts through the Cartan matrix alone.  One integer chamber
walk serves both the longest element (it walks -rho in fundamental-weight
coordinates) and the dominant representative of a real torus element (it
walks the simple-root values), and simple_root_values is the one product
of the Cartan matrix with coroot coordinates.

Every root pairing <v, alpha_i^vee> = sum_j v_j a_ji is column i of the
Cartan matrix against v, in integers.  It gives the simple reflections,
coroot_pairing and orthogonality to a root, so no invariant form is needed
and Fractions appear only in torus coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CartanType:
    """A simple Cartan family letter plus rank, validated on construction."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_CONSTRAINTS:
            raise ValueError(f"unknown Cartan family {self.family!r}; expected one of A-G")
        lo, hi = _RANK_CONSTRAINTS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f">= {lo}" if hi is None else (f"= {lo}" if lo == hi else f"in {{{lo}..{hi}}}")
            raise ValueError(f"family {self.family} requires rank {bound}, got {self.rank}")

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Root:
    """An integer vector over the simple roots, uniformly signed and nonzero."""

    coeffs: Coeffs

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValueError("zero vector is not a root")
        if any(c > 0 for c in self.coeffs) and any(c < 0 for c in self.coeffs):
            raise ValueError(f"mixed-sign coefficients {self.coeffs} are not a root")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def __neg__(self) -> "Root":
        return Root(tuple([-c for c in self.coeffs]))


@dataclass(frozen=True)
class RootSystem:
    """Full root data for one Cartan type.

    cartan_matrix[i][j] is the pairing of simple root i+1 against simple
    coroot j+1, so row i holds alpha_(i+1) in fundamental-weight coordinates.
    """

    ctype: CartanType
    cartan_matrix: tuple[Coeffs, ...]
    roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    root_index: frozenset[Coeffs] = field(repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        if not self.root_index:
            object.__setattr__(self, "root_index", frozenset(r.coeffs for r in self.roots))

    @property
    def rank(self) -> int:
        return self.ctype.rank

    @property
    def dim_g(self) -> int:
        return self.rank + len(self.roots)

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def is_root(self, coeffs) -> bool:
        return tuple(coeffs) in self.root_index


@dataclass(frozen=True)
class ParabolicData:
    """Root data of the standard parabolic attached to a set of simple roots."""

    subset: frozenset[int]
    delta_s: tuple[Root, ...]
    delta_s_plus: tuple[Root, ...]
    delta_s_minus: tuple[Root, ...]
    dim_p: int
    dim_l: int
    dim_u: int


@dataclass(frozen=True)
class ReducedWord:
    """A word in simple reflections; letters apply left to right."""

    letters: tuple[int, ...]

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
    """Generate the complete root system by reflection closure of the simple roots."""
    n = ctype.rank
    cartan = _cartan_matrix(ctype)
    seen: set[Coeffs] = set()
    frontier: list[Coeffs] = []
    for i in range(n):
        unit = tuple([1 if j == i else 0 for j in range(n)])
        seen.add(unit)
        frontier.append(unit)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = _reflect_coeffs(cartan, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    ordered = sorted(seen, key=lambda c: (sum(c), c))
    roots = tuple([Root(c) for c in ordered])
    positive = tuple([r for r in roots if r.is_positive])
    if len(roots) != 2 * len(positive):
        raise RuntimeError("root generation lost the plus/minus symmetry")
    return RootSystem(
        ctype=ctype,
        cartan_matrix=cartan,
        roots=roots,
        positive_roots=positive,
    )


def _check_index(rs: RootSystem, i: int) -> int:
    if not 1 <= i <= rs.rank:
        raise IndexError(f"simple-root index {i} out of range 1..{rs.rank}")
    return i - 1


def coroot_pairing(rs: RootSystem, i: int, v) -> int:
    """<v, alpha_i^vee> = sum_j v_j a_ji, in the ring of v; the Cartan integer a_ji when v is alpha_j."""
    return _pairing(rs.cartan_matrix, _check_index(rs, i), v)


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
    return Root(_reflect_coeffs(rs.cartan_matrix, i0, r.coeffs))


def weight_leq(rs: RootSystem, beta, gamma) -> bool:
    """True iff gamma - beta is a nonnegative integer combination of simple roots."""
    beta, gamma = tuple(beta), tuple(gamma)
    if len(beta) != rs.rank or len(gamma) != rs.rank:
        raise ValueError("vectors must have length equal to the rank")
    for b, g in zip(beta, gamma):
        diff = g - b
        if diff < 0 or diff.denominator != 1:
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


def longest_element(rs: RootSystem) -> ReducedWord:
    """Reduced word for the longest Weyl element, by greedy descent.

    Walk -rho, which is (-1, ..., -1) in fundamental-weight coordinates, to
    the dominant chamber, always reflecting at the least negative index.  The
    walk takes exactly one step per positive root.
    """
    _, letters = _chamber_walk(rs.cartan_matrix, [-1] * rs.rank, rs.num_positive)
    if len(letters) != rs.num_positive:
        raise RuntimeError("longest-element walk did not take |positive roots| steps")
    return ReducedWord(tuple(letters))


def apply_word_root(rs: RootSystem, word: ReducedWord, r: Root) -> Root:
    coeffs = r.coeffs
    for i in word.letters:
        coeffs = _reflect_coeffs(rs.cartan_matrix, i - 1, coeffs)
    return Root(coeffs)


def dual_subset(rs: RootSystem, subset) -> frozenset[int]:
    """The involution S -> -w0.S on subsets of the simple roots."""
    s = frozenset(subset)
    for i in s:
        _check_index(rs, i)
    w0 = longest_element(rs)
    out = set()
    for i in s:
        unit = Root(tuple([1 if j == i - 1 else 0 for j in range(rs.rank)]))
        image = -apply_word_root(rs, w0, unit)
        coeffs = image.coeffs
        if sum(coeffs) != 1 or set(coeffs) - {0, 1}:
            raise RuntimeError(f"-w0.alpha_{i} = {coeffs} is not a simple root")
        out.add(coeffs.index(1) + 1)
    return frozenset(out)


def parabolic_data(rs: RootSystem, subset) -> ParabolicData:
    """Root sets and dimensions of the standard parabolic, its Levi and unipotent parts."""
    s = frozenset(subset)
    for i in s:
        _check_index(rs, i)
    s0 = {i - 1 for i in s}
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


def root_system_to_json(rs: RootSystem) -> dict:
    """JSON-ready dict with integer entries, roots in canonical order."""
    return {
        "type": rs.ctype.family,
        "rank": rs.ctype.rank,
        "roots": [list(r.coeffs) for r in rs.roots],
        "cartan": [list(row) for row in rs.cartan_matrix],
    }


def solve_coroot_coords(rs: RootSystem, values) -> RatVector:
    """Coordinates over the simple coroots of the element with given simple-root values."""
    from . import linalg

    a = linalg.mat_from(rs.cartan_matrix)
    return tuple(linalg.solve(a, [linalg.frac(v) for v in values]))


def dominant_values(rs: RootSystem, values) -> tuple:
    """The dominant point in the Weyl orbit of a real h, both given by simple-root values.

    s_i lowers alpha_k(h) by alpha_i(h) * a[k][i], so the walk runs on the
    columns of the Cartan matrix.
    """
    columns = list(zip(*rs.cartan_matrix))
    return tuple(_chamber_walk(columns, values, rs.num_positive)[0])
