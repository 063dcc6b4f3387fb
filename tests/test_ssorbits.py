import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    conjugate,
    dominant_by_coroot_walk,
    rand_jordan_type,
    rand_rational_spectrum,
    rand_unimodular,
    time_bound,
)
from lieorbits import rootsys, ssorbits
from lieorbits.rootsys import CartanType, build_root_system, dual_subset, parabolic_data, solve_coroot_coords
from lieorbits.sln import SlnElement, is_semisimple, jordan_chevalley, orbit_dim, same_orbit
from lieorbits.ssorbits import (
    FundamentalDomainError,
    GaussianRational,
    TorusElement,
    centralizer_root_set,
    compactification_dims,
    dominant_representative,
    in_fundamental_domain,
    is_regular_semisimple,
    pi_of_h,
    root_value,
    simple_values,
    ss_orbit_dim,
    verify_dual_parabolic,
)

RANK_LE_4 = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", 3), ("D", 4), ("F", 4), ("G", 2)]
)


def torus_with_values(rs, values):
    """Torus element whose simple-root values are the given exact complex numbers."""
    values = [GaussianRational.of(v) if not isinstance(v, GaussianRational) else v for v in values]
    re = solve_coroot_coords(rs, [v.re for v in values])
    im = solve_coroot_coords(rs, [v.im for v in values])
    return TorusElement(tuple(GaussianRational(r, i) for r, i in zip(re, im)))


def test_fundamental_domain_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert in_fundamental_domain(a2, TorusElement.of([0, 0]))
    h = torus_with_values(a2, [1, 1])
    assert in_fundamental_domain(a2, h)
    hc = torus_with_values(a2, [GaussianRational.of(0, 1), GaussianRational.of(0, -1)])
    assert not in_fundamental_domain(a2, hc)
    # positive imaginary on the wall is allowed
    hw = torus_with_values(a2, [GaussianRational.of(0, 1), GaussianRational.of(2, 0)])
    assert in_fundamental_domain(a2, hw)


def test_of_takes_exact_parts_only():
    assert GaussianRational.of("1/2", -1) == GaussianRational(Fraction(1, 2), Fraction(-1))
    g = GaussianRational.of(1, 0)
    assert GaussianRational.of(g) is g and GaussianRational.of(g, "0") is g
    with pytest.raises(ValueError):
        GaussianRational.of(g, 5)
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)
    with pytest.raises(TypeError):
        GaussianRational.of(1, 0.5)
    with pytest.raises(TypeError):
        TorusElement.of([1, 0.5])


def test_pi_of_h():
    a2 = build_root_system(CartanType("A", 2))
    assert pi_of_h(a2, TorusElement.of([0, 0])) == frozenset({1, 2})
    kostant = torus_with_values(a2, [2, 2])
    assert pi_of_h(a2, kostant) == frozenset()
    assert pi_of_h(a2, torus_with_values(a2, [0, 1])) == frozenset({1})


def test_centralizer_root_set():
    a2 = build_root_system(CartanType("A", 2))
    assert len(centralizer_root_set(a2, TorusElement.of([0, 0]))) == 6
    regular = torus_with_values(a2, [1, 2])
    assert centralizer_root_set(a2, regular) == ()
    h = torus_with_values(a2, [0, 1])
    vanishing = {r.coeffs for r in centralizer_root_set(a2, h)}
    assert vanishing == {(1, 0), (-1, 0)}
    assert vanishing == {r.coeffs for r in parabolic_data(a2, {1}).delta_s}


def test_centralizer_levi_mismatch_raises(monkeypatch):
    a2 = build_root_system(CartanType("A", 2))
    h = torus_with_values(a2, [0, 1])
    borel = parabolic_data(a2, frozenset())
    monkeypatch.setattr(ssorbits, "parabolic_data", lambda rs, subset: borel)
    with pytest.raises(RuntimeError, match="Levi root set"):
        centralizer_root_set(a2, h)


def test_centralizer_inclusion_outside_domain():
    # outside the domain the Levi set is still contained in the vanishing set
    a3 = build_root_system(CartanType("A", 3))
    h = torus_with_values(a3, [0, -2, 0])
    assert not in_fundamental_domain(a3, h)
    vanishing = {r.coeffs for r in centralizer_root_set(a3, h)}
    levi = {r.coeffs for r in parabolic_data(a3, pi_of_h(a3, h)).delta_s}
    assert levi <= vanishing


def test_ss_orbit_dim_and_regularity():
    a2 = build_root_system(CartanType("A", 2))
    assert ss_orbit_dim(a2, TorusElement.of([0, 0])) == 0
    kostant = torus_with_values(a2, [2, 2])
    assert ss_orbit_dim(a2, kostant) == 6
    assert is_regular_semisimple(a2, kostant)
    assert not is_regular_semisimple(a2, TorusElement.of([0, 0]))
    h = torus_with_values(a2, [0, 1])
    assert ss_orbit_dim(a2, h) == 4
    a3 = build_root_system(CartanType("A", 3))
    one_wall = torus_with_values(a3, [0, 1, 1])
    assert not is_regular_semisimple(a3, one_wall)
    bad = torus_with_values(a2, [-1, 1])
    with pytest.raises(FundamentalDomainError) as err:
        ss_orbit_dim(a2, bad)
    assert "alpha_1" in str(err.value)


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_dual_parabolic_all_subsets(family, rank):
    rs = build_root_system(CartanType(family, rank))
    for r in range(rank + 1):
        for s in itertools.combinations(range(1, rank + 1), r):
            rep = verify_dual_parabolic(rs, s)
            assert rep.w0_image_is_plus
            assert rep.intersection_is_levi
            assert rep.plus_counts_equal
            assert rep.dim_intersection == rep.dim_l
            assert rep.ok


def test_dual_parabolic_examples():
    a2 = build_root_system(CartanType("A", 2))
    rep = verify_dual_parabolic(a2, set())
    assert rep.intersection_roots == () and rep.dim_intersection == 2
    rep = verify_dual_parabolic(a2, {1, 2})
    assert len(rep.intersection_roots) == 6 and rep.dim_intersection == a2.dim_g
    rep = verify_dual_parabolic(a2, {1})
    assert {r.coeffs for r in rep.intersection_roots} == {(1, 0), (-1, 0)}
    assert rep.dim_intersection == 4


def test_compactification_dims_examples():
    a2 = build_root_system(CartanType("A", 2))
    assert compactification_dims(a2, torus_with_values(a2, [1, 1])) == (6, 3, 3)
    assert compactification_dims(a2, TorusElement.of([0, 0])) == (0, 0, 0)
    assert compactification_dims(a2, torus_with_values(a2, [0, 1])) == (4, 2, 2)
    with pytest.raises(FundamentalDomainError):
        compactification_dims(a2, torus_with_values(a2, [-1, 1]))


def test_dual_subset_and_compactification_dims_apply_no_word(monkeypatch):
    e6 = build_root_system(CartanType("E", 6))
    h = torus_with_values(e6, [0, 1, 0, 2, 1, 1])
    expected = compactification_dims(e6, h)

    def refuse(*args):
        raise AssertionError("apply_word_root called")

    monkeypatch.setattr(rootsys, "apply_word_root", refuse)
    assert dual_subset(e6, {1, 2, 3}) == {6, 2, 5}
    assert compactification_dims(e6, h) == expected == (66, 33, 33)


def test_verify_dual_parabolic_walks_w0_once(monkeypatch):
    e6 = build_root_system(CartanType("E", 6))
    walks = []
    walk = rootsys._chamber_walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(rootsys, "_chamber_walk", counted)
    rep = verify_dual_parabolic(e6, {1, 3, 4})
    assert rep.ok and rep.dual == {6, 5, 4} and len(walks) == 1


@pytest.mark.parametrize("family,rank", RANK_LE_4)
def test_orbit_dims_are_even_and_doubled(family, rank):
    rs = build_root_system(CartanType(family, rank))
    rng = random.Random(rank * 31 + ord(family))
    pool = [Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
    for _ in range(25):
        values = [
            GaussianRational(rng.choice(pool), rng.choice(pool) if rng.random() < 0.3 else Fraction(0))
            for _ in range(rank)
        ]
        h = torus_with_values(rs, values)
        if not in_fundamental_domain(rs, h):
            continue
        dim_orbit, dim_gp, dim_gp_star = compactification_dims(rs, h)
        assert dim_orbit == ss_orbit_dim(rs, h)
        assert dim_orbit % 2 == 0
        assert dim_orbit == 2 * dim_gp and dim_gp == dim_gp_star


def test_ss_orbit_dim_equals_the_matrix_orbit_dim():
    # h = diag(spectrum), sorted down, has the partial sums as coroot coordinates; its orbit in sl_n has
    # dimension n^2 minus the squared multiplicities, on the root side and on a unimodular conjugate of the matrix
    rng = random.Random(89)
    with time_bound(2.0, "200 semisimple orbits, n = 2..9"):
        for n in range(2, 10):
            rs = build_root_system(CartanType("A", n - 1))
            for _ in range(25):
                pool = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 3))]
                spectrum = [rng.choice(pool) for _ in range(n - 1)]
                spectrum = sorted(spectrum + [-sum(spectrum)], reverse=True)
                h = TorusElement.of(list(itertools.accumulate(spectrum[:-1])))
                diag = [[spectrum[i] if i == j else 0 for j in range(n)] for i in range(n)]
                g, gi = rand_unimodular(rng, n)
                x = conjugate(g, gi, SlnElement.from_rows(diag))
                expected = n * n - sum(m * m for m in Counter(spectrum).values())
                assert ss_orbit_dim(rs, h) == orbit_dim(x) == expected, spectrum


def test_dominant_representative():
    a1 = build_root_system(CartanType("A", 1))
    hneg = torus_with_values(a1, [-3])
    hd = dominant_representative(a1, hneg)
    assert simple_values(a1, hd)[0] == GaussianRational.of(3)
    a2 = build_root_system(CartanType("A", 2))
    rng = random.Random(97)
    for _ in range(60):
        h = TorusElement.of([Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(2)])
        hd = dominant_representative(a2, h)
        assert in_fundamental_domain(a2, hd)
        assert dominant_representative(a2, hd) == hd
        before = sorted(root_value(a2, h, r).re for r in a2.roots)
        after = sorted(root_value(a2, hd, r).re for r in a2.roots)
        assert before == after
    with pytest.raises(ValueError):
        dominant_representative(a2, TorusElement.of([GaussianRational.of(0, 1), GaussianRational.of(0)]))


RANK_LE_8 = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_dominant_representative_against_coroot_walk():
    # the chamber walk on simple-root values against the old loop on coroot
    # coordinates, which recomputes every value after each step
    rng = random.Random(88)
    for family, rank in RANK_LE_8:
        rs = build_root_system(CartanType(family, rank))
        for _ in range(8):
            coords = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in range(rank)]
            hd = dominant_representative(rs, TorusElement.of(coords))
            assert [c.re for c in hd.coords] == dominant_by_coroot_walk(rs, coords)
            assert hd.is_real() and in_fundamental_domain(rs, hd)
        with pytest.raises(ValueError):
            dominant_representative(rs, TorusElement.of([GaussianRational.of(1, 1)] * rank))


def test_semisimple_iff_orbit_contains_semisimple_part():
    # closedness dichotomy restated at the matrix level
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(2, 4)
        x = rng.choice((rand_rational_spectrum, rand_jordan_type))(rng, n)
        xs = jordan_chevalley(x).semisimple_part
        assert is_semisimple(x) == same_orbit(x, xs)
