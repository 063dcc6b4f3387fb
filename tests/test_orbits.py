import gc
import itertools
import json
import random
from collections import Counter

import pytest

from helpers import ad_nullity, conjugate, rand_partition, rand_unimodular, time_bound
from lieorbits import linalg
from lieorbits.cli import main
from lieorbits.orbits import (
    OrbitPoset,
    Partition,
    closure_leq_rank,
    dominance_leq,
    hasse_diagram,
    jordan_matrix,
    minimal_orbit,
    orbit_dim_partition,
    partitions,
    regular_orbit,
    transpose,
)
from lieorbits.rootsys import CartanType, build_root_system
from lieorbits.sln import centralizer_dim, orbit_dim


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_stores_list_input_as_a_tuple():
    p = Partition([2, 1])
    assert p == Partition((2, 1)) and hash(p) == hash(Partition((2, 1)))
    assert type(p.parts) is tuple and len({p, Partition((2, 1))}) == 1
    assert str(p) == "2+1" and p.n == 3
    with pytest.raises(ValueError):
        Partition([1, 2])


def test_partition_refuses_parts_that_are_not_ints():
    # a float part would give a float n and orbit dimension, and a bool part prints as True
    for parts in ((2.5,), (True, True), (3, 1.0), (2, "1")):
        with pytest.raises(TypeError, match="give an int"):
            Partition(parts)
    with pytest.raises(TypeError):
        regular_orbit(2.5)
    assert str(Partition((True + True,))) == "2"


def test_partitions_counts_and_order():
    assert [p.parts for p in partitions(1)] == [(1,)]
    assert [p.parts for p in partitions(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(7)) == 15
    assert len(partitions(8)) == 22
    # reverse-lexicographic: strictly decreasing as tuples
    for n in range(2, 9):
        ps = [p.parts for p in partitions(n)]
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))


def test_dominance_examples():
    bottom = Partition((1, 1, 1, 1))
    for p in partitions(4):
        assert dominance_leq(bottom, p)
    assert dominance_leq(Partition((2, 1, 1, 1)), Partition((3, 1, 1)))
    a, b = Partition((3, 1, 1, 1)), Partition((2, 2, 2))
    assert not dominance_leq(a, b) and not dominance_leq(b, a)
    with pytest.raises(ValueError):
        dominance_leq(Partition((2,)), Partition((3,)))


def test_dominance_is_a_partial_order():
    for n in range(1, 9):
        ps = partitions(n)
        for x in ps:
            assert dominance_leq(x, x)
        for x, y in itertools.combinations(ps, 2):
            assert not (dominance_leq(x, y) and dominance_leq(y, x))
        rng = random.Random(n)
        for _ in range(200):
            x, y, z = (rng.choice(ps) for _ in range(3))
            if dominance_leq(x, y) and dominance_leq(y, z):
                assert dominance_leq(x, z)


def test_partitions_leave_no_reference_cycle():
    # the partitions must be freed as soon as the caller drops them, not at the
    # next run of the cyclic garbage collector
    gc.disable()
    try:
        gc.collect()
        partitions(6)
        assert gc.collect() == 0  # no cyclic garbage was left behind
    finally:
        gc.enable()


def test_transpose():
    assert transpose(Partition((5,))).parts == (1,) * 5
    assert transpose(Partition((2, 1, 1))).parts == (3, 1)
    assert transpose(Partition((2, 2))).parts == (2, 2)
    for n in range(1, 9):
        for p in partitions(n):
            assert transpose(transpose(p)) == p


def test_transpose_is_an_anti_automorphism():
    for n in range(1, 9):
        for x, y in itertools.product(partitions(n), repeat=2):
            assert dominance_leq(x, y) == dominance_leq(transpose(y), transpose(x))


def test_jordan_matrix():
    assert jordan_matrix(Partition((1, 1, 1))).is_zero()
    j4 = jordan_matrix(Partition((4,)))
    assert [j4.entries[i][i + 1] for i in range(3)] == [1, 1, 1]
    j211 = jordan_matrix(Partition((2, 1, 1)))
    assert j211.entries[0][1] == 1
    assert sum(1 for row in j211.entries for x in row if x) == 1


def test_orbit_dim_partition_examples():
    assert orbit_dim_partition(Partition((1,) * 5)) == 0
    for n in range(2, 9):
        assert orbit_dim_partition(regular_orbit(n)) == n * n - n
        assert orbit_dim_partition(minimal_orbit(n)) == 2 * n - 2
    assert orbit_dim_partition(Partition((2, 1, 1))) == 6


def test_orbit_dim_partition_against_transpose_form():
    # n^2 minus the squared column lengths of the Young diagram, via transpose
    for n in range(1, 16):
        for p in partitions(n):
            assert orbit_dim_partition(p) == n * n - sum(t * t for t in transpose(p).parts)


def test_orbit_dim_against_ad_nullity_oracle():
    for n in range(1, 7):
        for p in partitions(n):
            x = jordan_matrix(p)
            assert orbit_dim_partition(p) == orbit_dim(x) == (n * n - 1) - ad_nullity(x)


def test_orbit_dim_reaches_n20():
    # the ad(x) rank of the oracle is O(n^6) and does not reach these sizes
    rng = random.Random(83)
    for n in (16, 20):
        for p in [regular_orbit(n), minimal_orbit(n)] + [rand_partition(rng, n) for _ in range(2)]:
            g, gi = rand_unimodular(rng, n)
            x = conjugate(g, gi, jordan_matrix(p))
            assert orbit_dim(x) == orbit_dim_partition(p)
            assert centralizer_dim(x) == (n * n - 1) - orbit_dim_partition(p)


def epsilon_simple_roots(family, r):
    """Bourbaki's simple roots of A_r (in r + 1 coordinates), B_r, C_r and D_r in the epsilon basis."""
    dim = r + 1 if family == "A" else r
    unit = [[int(i == k) for k in range(dim)] for i in range(dim)]
    out = [[u - v for u, v in zip(unit[i], unit[i + 1])] for i in range(r if family == "A" else r - 1)]
    if family == "B":
        out.append(unit[r - 1])
    elif family == "C":
        out.append([2 * v for v in unit[r - 1]])
    elif family == "D":
        out.append([u + v for u, v in zip(unit[r - 2], unit[r - 1])])
    return out


def admissible(family, parts):
    """Collingwood-McGovern 5.1: in so_N every even part, in sp_N every odd part, has even multiplicity."""
    if family == "A":
        return True
    odd = family == "C"
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2 == odd)


def dim_by_closed_form(family, r, parts):
    """Collingwood-McGovern 6.1.3: n^2 - sum (lambda^T_i)^2 in type A; for so and sp, half of the sum, shifted
    by half the number of odd parts."""
    squares = sum(sum(p >= i for p in parts) ** 2 for i in range(1, parts[0] + 1))
    odd = sum(p % 2 for p in parts)
    if family == "A":
        return (r + 1) ** 2 - squares
    top = {"B": 2 * r * r + r, "C": 2 * r * r + r, "D": 2 * r * r - r}[family]
    return top - (squares + (odd if family == "C" else -odd)) // 2


def test_weighted_dynkin_diagram_dimension_equals_the_closed_forms():
    # dim O = dim g - dim g_0 - dim g_1 for g_i spanned by the roots with alpha(h) = i (and the Cartan in g_0),
    # h the dominant sl2 weights of the partition: the root side against the closed forms and, in type A,
    # against orbit_dim_partition
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    seen, orbits = 0, 0
    with time_bound(2.0, "weighted Dynkin diagrams of A2-A10, B2-B10, C2-C10, D4-D10"):
        for family, ranks in (("A", range(2, 11)), ("B", range(2, 11)), ("C", range(2, 11)), ("D", range(4, 11))):
            for r in ranks:
                rs = build_root_system(CartanType(family, r))
                simple = epsilon_simple_roots(family, r)
                cartan = [[2 * dot(a, b) // dot(b, b) for b in simple] for a in simple]  # the repo's numbering
                assert cartan == [list(row) for row in rs.cartan_matrix]
                size = {"A": r + 1, "B": 2 * r + 1, "C": 2 * r, "D": 2 * r}[family]
                for p in partitions(size):
                    parts = p.parts
                    if not admissible(family, parts):
                        continue
                    weights = sorted((q - 1 - 2 * k for q in parts for k in range(q)), reverse=True)
                    h = weights if family == "A" else weights[:r]
                    labels = [dot(a, h) for a in simple]
                    assert set(labels) <= {0, 1, 2}
                    seen += 1
                    diagrams = [labels]
                    if family == "D" and all(q % 2 == 0 for q in parts):  # very even: two orbits, swapped at the fork
                        diagrams.append(labels[:-2] + labels[:-3:-1])
                    for w in diagrams:
                        values = Counter(sum(c * v for c, v in zip(root.coeffs, w)) for root in rs.roots)
                        dim = rs.dim_g - (r + values[0]) - values[1]
                        assert dim == dim_by_closed_form(family, r, parts), (family, r, parts)
                        if family == "A":
                            assert dim == orbit_dim_partition(p)
                        orbits += 1
    assert (seen, orbits) == (1811, 1828)  # 17 very even partitions of D4-D10 give two orbits each


def test_closure_rank_oracle_examples():
    p = Partition((3, 2, 1))
    assert closure_leq_rank(p, p)
    n = 5
    min5 = minimal_orbit(n)
    below = [q for q in partitions(n) if closure_leq_rank(q, min5)]
    assert [q.parts for q in below] == [(2, 1, 1, 1), (1, 1, 1, 1, 1)]
    with pytest.raises(ValueError):
        closure_leq_rank(Partition((2,)), Partition((3,)))


def jordan_power_rank(lam, k):
    # rank(J_lam^k): a Jordan block of size p has rank max(p - k, 0) in its k-th power
    return sum(max(p - k, 0) for p in lam.parts)


def test_closure_rank_oracle_equals_dominance(monkeypatch):
    # the rank conditions against dominance and against the closed form of the ranks; the powers stop
    # where mu's vanish, so no side forms more than max(lam_1, mu_1) - 1 of them
    products = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: products.append(b) or mat_mul(a, b))
    for n in range(1, 11):
        for x, y in itertools.product(partitions(n), repeat=2):
            products.clear()
            got = closure_leq_rank(x, y)
            assert got == dominance_leq(x, y)
            assert got == all(jordan_power_rank(x, k) <= jordan_power_rank(y, k) for k in range(1, n))
            sides = Counter(map(id, products))  # the right factor is a side's J, the same list at every power
            assert len(sides) <= 2 and max(sides.values(), default=0) <= max(x.parts[0], y.parts[0]) - 1, (x, y)


def test_hasse_diagram_structure():
    h4 = hasse_diagram(4)
    assert isinstance(h4, OrbitPoset)
    assert len(h4.covers) == len(h4.nodes) - 1  # a chain for n = 4
    h6 = hasse_diagram(6)
    lut = {p.parts: i for i, p in enumerate(h6.nodes)}
    a, b = h6.nodes[lut[(3, 1, 1, 1)]], h6.nodes[lut[(2, 2, 2)]]
    assert not dominance_leq(a, b) and not dominance_leq(b, a)
    for n in range(1, 9):
        h = hasse_diagram(n)
        maxima = set(range(len(h.nodes))) - {lo for lo, _ in h.covers}
        minima = set(range(len(h.nodes))) - {hi for _, hi in h.covers}
        if len(h.nodes) == 1:
            assert maxima == minima == {0}
            continue
        assert [h.nodes[i].parts for i in sorted(maxima)] == [regular_orbit(n).parts]
        assert [h.nodes[i].parts for i in sorted(minima)] == [(1,) * n]


def test_minimal_orbit_covers_only_zero():
    for n in range(2, 9):
        h = hasse_diagram(n)
        lut = {p.parts: i for i, p in enumerate(h.nodes)}
        mi = lut[minimal_orbit(n).parts]
        assert [lo for lo, hi in h.covers if hi == mi] == [lut[(1,) * n]]


def test_covers_match_definitional_reduction():
    # a cover is a strict relation with nothing strictly between
    for n in range(1, 13):
        h = hasse_diagram(n)
        nodes = h.nodes
        expected = set()
        for i, j in itertools.product(range(len(nodes)), repeat=2):
            if i == j or not dominance_leq(nodes[i], nodes[j]):
                continue
            if any(
                k not in (i, j) and dominance_leq(nodes[i], nodes[k]) and dominance_leq(nodes[k], nodes[j])
                for k in range(len(nodes))
            ):
                continue
            expected.add((i, j))
        assert set(h.covers) == expected


def test_hasse_diagram_n30():
    h = hasse_diagram(30)
    assert len(h.nodes) == 5604
    maxima = set(range(len(h.nodes))) - {lo for lo, _ in h.covers}
    minima = set(range(len(h.nodes))) - {hi for _, hi in h.covers}
    assert [h.nodes[i].parts for i in maxima] == [(30,)]
    assert [h.nodes[i].parts for i in minima] == [(1,) * 30]
    for lo, hi in h.covers:
        assert dominance_leq(h.nodes[lo], h.nodes[hi])
        assert orbit_dim_partition(h.nodes[lo]) < orbit_dim_partition(h.nodes[hi])


def test_strict_dimension_drop_along_covers():
    for n in range(2, 9):
        h = hasse_diagram(n)
        for lo, hi in h.covers:
            assert orbit_dim_partition(h.nodes[lo]) < orbit_dim_partition(h.nodes[hi])


def test_regular_minimal_edges():
    assert regular_orbit(2) == minimal_orbit(2) == Partition((2,))
    assert regular_orbit(4).parts == (4,) and minimal_orbit(4).parts == (2, 1, 1)
    with pytest.raises(ValueError):
        minimal_orbit(1)


def test_poset_emission(capsys):
    h = hasse_diagram(4)
    assert main(["poset", "--n", "4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 4 and len(d["nodes"]) == 5
    assert d["nodes"][0] == {"parts": [4], "dim": 12}
    assert all(len(c) == 2 for c in d["covers"])
    assert main(["poset", "--n", "4", "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert '"4 (dim 12)"' in dot and '"2+1+1 (dim 6)"' in dot
    assert dot.count("->") == len(h.covers)
