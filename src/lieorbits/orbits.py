"""Nilpotent-orbit combinatorics for traceless matrices: partitions of n.

Orbits are labeled by partitions, ordered by dominance (prefix sums), with
the closure order realized two independent ways: the dominance test itself
and an exact rank oracle on powers of the Jordan representatives.  The poset
is its covering relations on the partitions in deterministic
reverse-lexicographic order.  Covers come straight from Brylawski's rule
(T. Brylawski, "The lattice of integer partitions", Discrete Math. 6, 1973),
so the diagram needs no pairwise dominance comparisons.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sln import SlnElement


class Partition(namedtuple("Partition", "parts")):
    """A tuple of weakly decreasing positive integers; labels one nilpotent orbit."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace goes through _make

    def __new__(cls, parts: tuple[int, ...]):
        parts = tuple(parts)  # a list would compare unequal to the tuple and leave the partition unhashable
        if not parts:
            raise ValueError("a partition needs at least one part")
        for p in parts:
            if type(p) is not int:  # bool too: True would print as True and count as 1
                raise TypeError(f"part {p!r} is a {type(p).__name__}; give an int")
            if p < 1:
                raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return tuple.__new__(cls, (parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "+".join(str(p) for p in self.parts)


class OrbitPoset(namedtuple("OrbitPoset", "n nodes covers")):
    """All partitions of n with the covering pairs of the dominance order.

    covers holds (lower_index, upper_index) pairs into nodes; nodes are in
    reverse-lexicographic order, so index 0 is the regular orbit (n) and the
    last index is the zero orbit (1,...,1).
    """

    __slots__ = ()


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if type(n) is not int:  # bool too: True would give the partitions of 1
        raise TypeError(f"n {n!r} is a {type(n).__name__}; give an int")
    if n < 1:
        raise ValueError("n must be at least 1")
    out: list[Partition] = []
    _extend_partitions(out, n, n, ())
    return out


def _extend_partitions(out: list[Partition], remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
    # a module-level function: a nested one would hold itself and out in a
    # reference cycle, and the partitions would outlive the caller until the
    # cyclic garbage collector ran
    if remaining == 0:
        out.append(Partition(prefix))
        return
    for p in range(min(cap, remaining), 0, -1):
        _extend_partitions(out, remaining - p, p, prefix + (p,))


def _check_same_n(lam: Partition, mu: Partition):
    if lam.n != mu.n:
        raise ValueError(f"partitions of different integers: {lam.n} vs {mu.n}")


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Prefix-sum comparison: every initial segment of lam sums to at most mu's."""
    _check_same_n(lam, mu)
    acc_l = acc_m = 0
    for i in range(max(len(lam.parts), len(mu.parts))):
        acc_l += lam.parts[i] if i < len(lam.parts) else 0
        acc_m += mu.parts[i] if i < len(mu.parts) else 0
        if acc_l > acc_m:
            return False
    return True


def transpose(lam: Partition) -> Partition:
    """Conjugate partition: column lengths of the Young diagram."""
    return Partition(tuple([sum(1 for p in lam.parts if p >= i) for i in range(1, lam.parts[0] + 1)]))


def jordan_matrix(lam: Partition) -> SlnElement:
    """Nilpotent block matrix with one upper Jordan block per part, largest first."""
    from .sln import SlnElement

    return SlnElement.from_rows(_jordan_rows(lam))


def _jordan_rows(lam: Partition) -> list[list[int]]:
    """The entries of jordan_matrix(lam) as rows of 0/1 ints."""
    n = lam.n
    m = [[0] * n for _ in range(n)]
    off = 0
    for p in lam.parts:
        for i in range(p - 1):
            m[off + i][off + i + 1] = 1
        off += p
    return m


def orbit_dim_partition(lam: Partition) -> int:
    """n^2 - sum_i (2i-1) lam_i over the decreasing parts, i from 1.

    That sum equals the sum of the squared parts of the transpose: column j
    of the Young diagram has one cell in each row i <= lam*_j, and
    lam*_j^2 = sum over those i of 2i-1.
    """
    n = lam.n
    return n * n - sum([(2 * i + 1) * p for i, p in enumerate(lam.parts)])


def closure_leq_rank(lam: Partition, mu: Partition) -> bool:
    """Closure membership by exact rank conditions on Jordan representatives.

    True iff rank(J_lam^k) <= rank(J_mu^k) for 1 <= k < n, with ranks computed
    from the actual matrix powers; independent of the dominance shortcut.
    The powers stop at the first k where J_mu^k = 0 and the check passed:
    rank(J_lam^k) is then 0, so J_lam^k = 0 too, and every later condition
    reads 0 <= 0.
    """
    from . import linalg

    _check_same_n(lam, mu)
    n = lam.n
    a = _jordan_rows(lam)
    b = _jordan_rows(mu)
    pa, pb = a, b
    for k in range(1, n):
        if k > 1:
            pa = linalg.mat_mul(pa, a)
            pb = linalg.mat_mul(pb, b)
        ra, rb = linalg.rank(pa), linalg.rank(pb)
        if ra > rb:
            return False
        if not rb:
            return True
    return True


def hasse_diagram(n: int) -> OrbitPoset:
    """Dominance order on partitions of n, as its covering relations.

    Brylawski's rule (Discrete Math. 6, 1973): mu covers lam iff
    mu = lam + e_i - e_j for some i < j, mu is a partition, and either
    j = i + 1 or lam_i = lam_j.  Raising part i keeps the parts weakly
    decreasing only when i starts a run of equal parts.  For such an i the
    rule leaves one j: the end of that run if the run has two or more parts,
    else i + 1.  The candidate is a partition iff it is one of the nodes,
    which the parts -> index lookup decides.
    """
    nodes = partitions(n)
    index = {p.parts: k for k, p in enumerate(nodes)}
    covers = []
    for lo, lam in enumerate(nodes):
        parts = lam.parts
        last = len(parts) - 1
        for i in range(last):
            if i and parts[i - 1] == parts[i]:
                continue
            j = i + 1
            while j < last and parts[j + 1] == parts[i]:
                j += 1
            mu = parts[:i] + (parts[i] + 1,) + parts[i + 1 : j] + (parts[j] - 1,) + parts[j + 1 :]
            hi = index.get(mu if mu[-1] else mu[:-1])
            if hi is not None:
                covers.append((lo, hi))
    covers.sort()
    return OrbitPoset(n=n, nodes=tuple(nodes), covers=tuple(covers))


def regular_orbit(n: int) -> Partition:
    """Label of the unique dense nilpotent orbit: the single-block partition."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Partition((n,))


def minimal_orbit(n: int) -> Partition:
    """Label of the minimal nonzero nilpotent orbit: one 2 and n-2 ones."""
    if n < 2:
        raise ValueError("no nonzero nilpotent orbit exists for n < 2")
    return Partition((2,) + (1,) * (n - 2))
