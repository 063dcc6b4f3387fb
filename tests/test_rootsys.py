import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from helpers import longest_word_by_rho, roots_by_reflection_closure, symmetrized_form, time_bound

from lieorbits.cli import main
from lieorbits.minorbit import min_orbit_report
from lieorbits.rootsys import (
    CartanType,
    ReducedWord,
    Root,
    apply_word_root,
    build_root_system,
    coroot_pairing,
    dual_subset,
    longest_element,
    maximal_root,
    parabolic_data,
    reflect_root,
    weight_leq,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", n) for n in range(3, 6)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

ROOT_COUNTS = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n, "C": lambda n: 2 * n * n,
               "D": lambda n: 2 * n * (n - 1), "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
               "F": lambda n: 48, "G": lambda n: 12}


def unit(rank, i):
    return tuple(1 if j == i - 1 else 0 for j in range(rank))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_counts_and_symmetry(family, rank):
    rs = build_root_system(CartanType(family, rank))
    assert len(rs.roots) == ROOT_COUNTS[family](rank)
    assert len(rs.roots) == 2 * len(rs.positive_roots)
    assert {(-r).coeffs for r in rs.roots} == {r.coeffs for r in rs.roots}
    assert rs.dim_g == rank + len(rs.roots)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_reflection_closure_and_sign_purity(family, rank):
    rs = build_root_system(CartanType(family, rank))
    coeff_set = {r.coeffs for r in rs.roots}
    for r in rs.roots:
        pos = [c for c in r.coeffs if c > 0]
        neg = [c for c in r.coeffs if c < 0]
        assert not (pos and neg) and (pos or neg)
        for i in range(1, rank + 1):
            assert reflect_root(rs, i, r).coeffs in coeff_set


CLOSURE_TYPES = (
    [(family, n) for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", CLOSURE_TYPES)
def test_roots_by_height_equal_the_reflection_closure(family, rank):
    rs = build_root_system(CartanType(family, rank))
    roots, positive = roots_by_reflection_closure(rs.cartan_matrix)
    assert [r.coeffs for r in rs.roots] == roots
    assert [r.coeffs for r in rs.positive_roots] == positive


def test_rank_40_roots_pinned(capsys):
    # pinned from the reflection closure, which takes 0.3-0.7 s per type at rank 40
    pinned = {
        "A": "4f544fdb1c5a1da46b3d956272a3d94ee6c231497fcda5451a6fe73ccb377e40",
        "B": "d38d70ecdccce9233bb5390e108f49ddcbd415ccee5423685b74196c5c938e9c",
        "C": "6d832f87601f72a784d1d76a5aaaa6e8e0ec76ac2d7990b1bfb10021cb5ad1db",
        "D": "0d80fd69159e71f0d3e9787a8fd6b07de29ededace0a0bc535cf7ec739e72992",
    }
    for family, want in pinned.items():
        assert main(["roots", "--type", family, "--rank", "40"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert hashlib.sha256(json.dumps(d).encode()).hexdigest() == want


BUILT_TYPES = [(family, 40) for family in "ABCD"] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", BUILT_TYPES)
def test_built_roots_are_nonzero_and_sign_pure(family, rank):
    # build_root_system skips the checks of Root(...), so they are made here
    rs = build_root_system(CartanType(family, rank))
    for r in rs.roots:
        assert type(r) is Root and len(r.coeffs) == rank
        assert all(type(c) is int for c in r.coeffs)
        assert all(c >= 0 for c in r.coeffs) or all(c <= 0 for c in r.coeffs)
        assert any(r.coeffs)
    assert all(r.is_positive for r in rs.positive_roots)


@pytest.mark.parametrize("family,rank", BUILT_TYPES)
def test_negative_roots_are_the_positives_negated_in_reverse(family, rank):
    rs = build_root_system(CartanType(family, rank))
    m = rs.num_positive
    assert rs.roots[m:] == rs.positive_roots
    assert [r.coeffs for r in rs.roots[:m]] == [tuple(-c for c in r.coeffs) for r in reversed(rs.positive_roots)]


def test_build_root_system_calls_no_validating_constructor():
    checked = vars(Root)["__new__"]
    calls = []

    def counting(cls, coeffs):
        calls.append(coeffs)
        return checked.__func__(cls, coeffs)

    Root.__new__ = staticmethod(counting)
    try:
        rs = build_root_system(CartanType("E", 8))
        assert calls == []
        Root((1, 0))  # the wrapper is live
        assert calls == [(1, 0)]
    finally:
        Root.__new__ = checked
    assert len(rs.roots) == 240
    with pytest.raises(ValueError):
        Root((1, -1))


def test_classical_rank_40_systems_build_together_within_half_a_second():
    with time_bound(0.5, "A40, B40, C40 and D40 root systems"):
        systems = [build_root_system(CartanType(family, 40)) for family in "ABCD"]
    assert [len(rs.roots) for rs in systems] == [1640, 3200, 3200, 3120]


def test_cartan_type_rank_must_be_an_int():
    for rank in (2.5, 2.0, True, False, "2", Fraction(2)):
        with pytest.raises(TypeError, match=f"^rank {re.escape(repr(rank))} is a {type(rank).__name__}; give an int$"):
            CartanType("A", rank)
    with pytest.raises(TypeError):
        CartanType("A", 2)._replace(rank=2.0)
    assert CartanType("A", 2).rank == 2


def test_invalid_ranks_rejected():
    for family, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("H", 2)]:
        with pytest.raises(ValueError):
            CartanType(family, rank)


def test_root_type_invariants():
    with pytest.raises(ValueError):
        Root((0, 0))
    with pytest.raises(ValueError):
        Root((1, -1))


def test_weight_leq_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert weight_leq(a2, (1, 0), (1, 0))
    assert weight_leq(a2, (1, 0), (1, 1))
    assert not weight_leq(a2, (1, 0), (0, 1))
    # non-integral differences do not compare
    assert not weight_leq(a2, (Fraction(1, 2), 0), (1, 0))
    assert weight_leq(a2, (Fraction(1, 2), 0), (Fraction(3, 2), 1))
    assert not weight_leq(a2, (Fraction(3, 2), 0), (Fraction(1, 2), 1))


def test_maximal_root_examples():
    for n in range(1, 8):
        rs = build_root_system(CartanType("A", n))
        assert maximal_root(rs).coeffs == tuple([1] * n)
    g2 = build_root_system(CartanType("G", 2))
    assert maximal_root(g2).coeffs == (3, 2)
    for family, rank in ALL_TYPES:
        rs = build_root_system(CartanType(family, rank))
        theta = maximal_root(rs)
        assert theta.is_positive
        assert all(weight_leq(rs, r.coeffs, theta.coeffs) for r in rs.roots)


def test_coroot_pairing_examples():
    a2 = build_root_system(CartanType("A", 2))
    for i in (1, 2):
        assert coroot_pairing(a2, i, unit(2, i)) == 2
    assert coroot_pairing(a2, 1, unit(2, 2)) == -1
    b2 = build_root_system(CartanType("B", 2))
    assert coroot_pairing(b2, 1, unit(2, 2)) == -1
    assert coroot_pairing(b2, 2, unit(2, 1)) == -2
    # pairing against a simple root recovers the Cartan matrix column
    for rs in (a2, b2):
        for i in range(1, 3):
            for j in range(1, 3):
                assert coroot_pairing(rs, j, unit(2, i)) == rs.cartan_matrix[i - 1][j - 1]
    with pytest.raises(IndexError):
        coroot_pairing(a2, 3, (1, 0))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_coroot_pairing_and_pi_theta_against_the_form(family, rank):
    # the oracle is the symmetrized invariant form, which shares no pairing code with src
    rs = build_root_system(CartanType(family, rank))
    form = symmetrized_form(rs)
    units = [unit(rank, i) for i in range(1, rank + 1)]
    for r in rs.roots:
        for i, e in enumerate(units, start=1):
            pairing = coroot_pairing(rs, i, r.coeffs)
            assert type(pairing) is int
            assert pairing == 2 * form(e, r.coeffs) / form(e, e)
    rep = min_orbit_report(rs)
    assert rep.pi_theta == {i for i, e in enumerate(units, start=1) if form(e, rep.theta.coeffs) == 0}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_longest_element(family, rank):
    rs = build_root_system(CartanType(family, rank))
    w0 = longest_element(rs)
    assert len(w0) == len(rs.positive_roots)
    image_of_simples = {(-apply_word_root(rs, w0, Root(unit(rank, i)))).coeffs for i in range(1, rank + 1)}
    assert image_of_simples == {unit(rank, i) for i in range(1, rank + 1)}
    for r in rs.roots:
        assert apply_word_root(rs, w0, apply_word_root(rs, w0, r)) == r
    positives = {r.coeffs for r in rs.positive_roots}
    assert {apply_word_root(rs, w0, r).coeffs for r in rs.positive_roots} == {(-r).coeffs for r in rs.positive_roots}
    assert positives == {(-apply_word_root(rs, w0, r)).coeffs for r in rs.positive_roots}


W0_TYPES = (
    [("A", n) for n in range(1, 21)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(3, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_longest_element_against_rho_walk():
    # the integer walk of -rho over fundamental weights against the Fraction
    # walk of rho over simple roots; the digest pins the words themselves
    digest = hashlib.sha256()
    for family, rank in W0_TYPES:
        rs = build_root_system(CartanType(family, rank))
        letters = longest_element(rs).letters
        assert letters == longest_word_by_rho(rs)
        digest.update(f"{family}{rank}:{','.join(map(str, letters))}\n".encode())
    assert digest.hexdigest() == "26febf11df900e853a1f4cc805415ea8453594521eb8a15f79703f4fd470c883"


def test_longest_element_small_words():
    a1 = build_root_system(CartanType("A", 1))
    assert longest_element(a1).letters == (1,)
    a2 = build_root_system(CartanType("A", 2))
    assert len(longest_element(a2)) == 3


def test_apply_word_root_checks_its_letters():
    a3 = build_root_system(CartanType("A", 3))
    r = Root(unit(3, 1))
    for bad in (0, -1, 4):
        with pytest.raises(IndexError, match=rf"^simple-root index {bad} out of range 1\.\.3$"):
            apply_word_root(a3, ReducedWord((1, bad, 2)), r)
    assert apply_word_root(a3, ReducedWord(()), r) == r
    assert apply_word_root(a3, ReducedWord((1, 3)), r) == -r


def test_dual_subset():
    a3 = build_root_system(CartanType("A", 3))
    assert dual_subset(a3, set()) == frozenset()
    assert dual_subset(a3, {1}) == frozenset({3})
    assert dual_subset(a3, {2}) == frozenset({2})
    d4 = build_root_system(CartanType("D", 4))
    assert dual_subset(d4, {1}) == frozenset({1})
    for rs in (a3, d4):
        for r in range(rs.rank + 1):
            for s in itertools.combinations(range(1, rs.rank + 1), r):
                assert dual_subset(rs, dual_subset(rs, s)) == frozenset(s)
    with pytest.raises(IndexError):
        dual_subset(a3, {4})


SIGMA_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    + [(family, 40) for family in "ABCD"]
)


@pytest.mark.parametrize("family,rank", SIGMA_TYPES)
def test_dual_subset_against_the_w0_word(family, rank):
    # the oracle: -w0.alpha_i = alpha_sigma(i), with w0 applied letter by letter
    rs = build_root_system(CartanType(family, rank))
    w0 = longest_element(rs)
    for i in range(1, rank + 1):
        (j,) = dual_subset(rs, {i})
        assert (-apply_word_root(rs, w0, Root(unit(rank, i)))).coeffs == unit(rank, j)
    assert dual_subset(rs, range(1, rank + 1)) == frozenset(range(1, rank + 1))


def test_w0_walk_checks_its_length():
    a3 = build_root_system(CartanType("A", 3))
    for positives in (a3.positive_roots[:-1], a3.positive_roots + a3.positive_roots[:1]):
        broken = a3._replace(positive_roots=positives)
        for call in (longest_element, lambda rs: dual_subset(rs, {1})):
            with pytest.raises(RuntimeError):
                call(broken)


def test_vectors_of_the_wrong_length_are_refused():
    a3 = build_root_system(CartanType("A", 3))
    for v in ((1,), (1, 0, 0, 0, 0)):
        for call in (
            lambda: coroot_pairing(a3, 1, v),
            lambda: reflect_root(a3, 1, Root(v)),
            lambda: apply_word_root(a3, longest_element(a3), Root(v)),
            lambda: apply_word_root(a3, ReducedWord(()), Root(v)),
            lambda: weight_leq(a3, v, (1, 1, 1)),
        ):
            with pytest.raises(ValueError, match="^vectors must have length equal to the rank$"):
                call()


def test_parabolic_data_examples():
    a2 = build_root_system(CartanType("A", 2))
    borel = parabolic_data(a2, set())
    assert (borel.dim_l, borel.dim_u, borel.dim_p) == (2, 3, 5)
    full = parabolic_data(a2, {1, 2})
    assert full.dim_p == a2.dim_g and full.dim_u == 0
    pd = parabolic_data(a2, {1})
    assert (pd.dim_l, pd.dim_u, pd.dim_p) == (4, 2, 6)
    assert {r.coeffs for r in pd.delta_s} == {(1, 0), (-1, 0)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_parabolic_dimension_bookkeeping(family, rank):
    rs = build_root_system(CartanType(family, rank))
    for r in range(rank + 1):
        for s in itertools.combinations(range(1, rank + 1), r):
            pd = parabolic_data(rs, s)
            assert pd.dim_p == pd.dim_l + pd.dim_u
            assert pd.dim_l == rank + len(pd.delta_s)
            assert pd.dim_u == len(rs.positive_roots) - len(pd.delta_s_plus)
            assert pd.dim_p - pd.dim_l == len(rs.positive_roots) - len(pd.delta_s_plus)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_w0_carries_dual_levi_minus_onto_levi_plus(family, rank):
    rs = build_root_system(CartanType(family, rank))
    w0 = longest_element(rs)
    for r in range(rank + 1):
        for s in itertools.combinations(range(1, rank + 1), r):
            sv = dual_subset(rs, s)
            image = {apply_word_root(rs, w0, x).coeffs for x in parabolic_data(rs, sv).delta_s_minus}
            assert image == {x.coeffs for x in parabolic_data(rs, s).delta_s_plus}
            assert len(parabolic_data(rs, s).delta_s_plus) == len(parabolic_data(rs, sv).delta_s_plus)


def test_json_shape(capsys):
    assert main(["roots", "--type", "G", "--rank", "2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["type"] == "G" and d["rank"] == 2
    assert len(d["roots"]) == 12 and d["cartan"] == [[2, -1], [-3, 2]]
    assert all(isinstance(x, int) for row in d["roots"] for x in row)
