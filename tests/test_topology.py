import pytest

from lieorbits import topology
from lieorbits.cli import main
from lieorbits.rootsys import CartanType, build_root_system
from lieorbits.topology import exponents, poincare_polynomial

RANK_LE_8 = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_small_examples():
    a1 = build_root_system(CartanType("A", 1))
    data = exponents(a1)
    assert data.dims == (3,)
    assert data.poly == (1, 0, 0, 1)
    a2 = build_root_system(CartanType("A", 2))
    assert exponents(a2).dims == (3, 5)
    g2 = build_root_system(CartanType("G", 2))
    assert exponents(g2).dims == (3, 11)


def test_type_a_dims():
    for n in range(1, 9):
        rs = build_root_system(CartanType("A", n))
        assert exponents(rs).dims == tuple(range(3, 2 * n + 2, 2))


def test_d4_has_a_repeat():
    d4 = build_root_system(CartanType("D", 4))
    assert exponents(d4).dims == (3, 7, 7, 11)


def test_e8():
    e8 = build_root_system(CartanType("E", 8))
    data = exponents(e8)
    assert len(data.dims) == 8 and sum(data.dims) == 248


@pytest.mark.parametrize("family,rank", RANK_LE_8)
def test_dims_invariants(family, rank):
    rs = build_root_system(CartanType(family, rank))
    data = exponents(rs)
    assert len(data.dims) == rank
    assert sum(data.dims) == rs.dim_g
    assert all(d % 2 == 1 for d in data.dims)
    assert list(data.dims) == sorted(data.dims)
    # rank many height-one roots, and the distribution sums to the positive count
    counts = dict(data.heights)
    assert counts[1] == rank
    assert sum(counts.values()) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", RANK_LE_8)
def test_poincare_polynomial(family, rank):
    rs = build_root_system(CartanType(family, rank))
    poly = poincare_polynomial(rs)
    assert sum(poly) == 2**rank
    assert list(poly) == list(reversed(poly))
    assert len(poly) - 1 == sum(exponents(rs).dims)


def test_latex_output(capsys, monkeypatch):
    calls = []

    def counted(rs):
        calls.append(rs.ctype)
        return exponents(rs)

    monkeypatch.setattr(topology, "exponents", counted)
    assert main(["poincare", "--type", "A", "--rank", "2", "--latex"]) == 0
    assert capsys.readouterr().out == "(1+t^{3})(1+t^{5})\n"
    assert calls == [CartanType("A", 2)]
