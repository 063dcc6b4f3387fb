import pytest

from lieorbits.minorbit import min_orbit_report
from lieorbits.orbits import hasse_diagram, minimal_orbit, orbit_dim_partition
from lieorbits.rootsys import CartanType, build_root_system, weight_leq


def test_a4_example():
    rs = build_root_system(CartanType("A", 4))
    rep = min_orbit_report(rs)
    assert rep.pi_theta == frozenset({2, 3})
    assert rep.dim_P_Omin == 7
    assert rep.dim_Omin == 8


def test_a1_example():
    rs = build_root_system(CartanType("A", 1))
    rep = min_orbit_report(rs)
    assert rep.pi_theta == frozenset()
    assert rep.dim_Omin == 2  # equals the regular orbit dimension for 2x2


def test_d4_example():
    rs = build_root_system(CartanType("D", 4))
    rep = min_orbit_report(rs)
    assert rep.pi_theta == frozenset({1, 3, 4})
    assert rep.dim_Omin == 10


def test_theta_dominates():
    for family, rank in [("A", 3), ("B", 3), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]:
        rs = build_root_system(CartanType(family, rank))
        rep = min_orbit_report(rs)
        assert rep.theta.is_positive
        assert all(weight_leq(rs, r.coeffs, rep.theta.coeffs) for r in rs.roots)
        assert rep.dim_Omin == rep.dim_P_Omin + 1


def test_type_a_cross_module_consistency():
    for n in range(3, 9):
        rs = build_root_system(CartanType("A", n - 1))
        rep = min_orbit_report(rs)
        # P(O_min) is the variety of incident (line, hyperplane) flags in C^n
        assert rep.dim_P_Omin == 2 * n - 3
        assert rep.dim_Omin == orbit_dim_partition(minimal_orbit(n)) == 2 * n - 2
        assert rep.pi_theta == frozenset(range(2, n - 1))


def test_min_orbit_covers_only_zero_in_type_a():
    for n in range(3, 8):
        h = hasse_diagram(n)
        lut = {p.parts: i for i, p in enumerate(h.nodes)}
        mi = lut[minimal_orbit(n).parts]
        assert [lo for lo, hi in h.covers if hi == mi] == [lut[(1,) * n]]


def test_product_types_are_rejected():
    # uniqueness of the minimal nonzero orbit needs a simple algebra; the
    # constructors only admit the simple families, so no product type exists
    with pytest.raises(ValueError):
        CartanType("AxA", 2)
    with pytest.raises(ValueError):
        CartanType("AA", 4)
