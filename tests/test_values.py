"""The contract of the public value classes: validated, immutable, compared by value."""

import re
from fractions import Fraction

import pytest

from lieorbits.minorbit import MinOrbitReport, min_orbit_report
from lieorbits.orbits import OrbitPoset, Partition, hasse_diagram
from lieorbits.rootsys import (
    CartanType,
    ParabolicData,
    ReducedWord,
    Root,
    RootSystem,
    build_root_system,
    longest_element,
    parabolic_data,
)
from lieorbits.sln import JordanPair, SlnElement, jordan_chevalley
from lieorbits.ssorbits import DualParabolicReport, GaussianRational, TorusElement, verify_dual_parabolic
from lieorbits.topology import ExponentData, exponents
from lieorbits.triples import (
    AbstractPrincipalTriple,
    CorootVector,
    MatrixTriple,
    kostant_principal,
    principal_triple_sln,
)

# every public value class and its fields, in order
FIELDS = {
    CartanType: ("family", "rank"),
    Root: ("coeffs",),
    RootSystem: ("ctype", "cartan_matrix", "roots", "positive_roots"),
    ParabolicData: ("subset", "delta_s", "delta_s_plus", "delta_s_minus", "dim_p", "dim_l", "dim_u"),
    ReducedWord: ("letters",),
    SlnElement: ("n", "entries"),
    JordanPair: ("semisimple_part", "nilpotent_part", "semisimple_witness", "nilpotent_witness"),
    GaussianRational: ("re", "im"),
    TorusElement: ("coords",),
    DualParabolicReport: (
        "subset",
        "dual",
        "w0_image_is_plus",
        "intersection_roots",
        "intersection_is_levi",
        "dim_intersection",
        "dim_l",
        "plus_counts_equal",
    ),
    CorootVector: ("coords",),
    AbstractPrincipalTriple: ("h", "c"),
    MatrixTriple: ("x", "h", "y"),
    Partition: ("parts",),
    OrbitPoset: ("n", "nodes", "covers"),
    ExponentData: ("heights", "dims", "poly"),
    MinOrbitReport: ("theta", "pi_theta", "dim_P_Omin", "dim_Omin"),
}


def build_values():
    """One fresh instance of every value class, each built anew."""
    rs = build_root_system(CartanType("D", 4))
    x = SlnElement.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    return [
        rs.ctype,
        rs.roots[0],
        rs,
        parabolic_data(rs, {1, 3}),
        longest_element(rs),
        x,
        jordan_chevalley(x),
        GaussianRational.of(1, "1/2"),
        TorusElement.of([1, 0, "1/2", 2]),
        verify_dual_parabolic(rs, {1}),
        kostant_principal(rs).h,
        kostant_principal(rs),
        principal_triple_sln(3),
        Partition((3, 1)),
        hasse_diagram(4),
        exponents(rs),
        min_orbit_report(rs),
    ]


def test_every_value_class_is_built():
    assert [type(v) for v in build_values()] == list(FIELDS)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: CartanType("H", 3), "unknown Cartan family 'H'; expected one of A-G"),
        (lambda: CartanType("B", 1), "family B requires rank >= 2, got 1"),
        (lambda: CartanType("E", 9), "family E requires rank in {6..8}, got 9"),
        (lambda: CartanType("G", 3), "family G requires rank = 2, got 3"),
        (lambda: Root((0, 0)), "zero vector is not a root"),
        (lambda: Root((1, -1)), "mixed-sign coefficients (1, -1) are not a root"),
        (lambda: SlnElement(0, ()), "n must be at least 1"),
        (lambda: SlnElement(2, ((0, 1),)), "entries must form an 2x2 matrix"),
        (lambda: SlnElement(2, ((0, 1), (0,))), "entries must form an 2x2 matrix"),
        (lambda: SlnElement.from_rows([[1, 0], [0, 1]]), "trace must be zero, got 2"),
        (lambda: Partition(()), "a partition needs at least one part"),
        (lambda: Partition((2, 0)), "parts must be positive: (2, 0)"),
        (lambda: Partition((1, 2)), "parts must be weakly decreasing: (1, 2)"),
    ],
)
def test_validating_constructors_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: CartanType("A", 2)._replace(family="H"), "unknown Cartan family 'H'; expected one of A-G"),
        (lambda: CartanType._make(["G", 3]), "family G requires rank = 2, got 3"),
        (lambda: Root((1, 0))._replace(coeffs=(0, 0)), "zero vector is not a root"),
        (lambda: Root._make([(1, -1)]), "mixed-sign coefficients (1, -1) are not a root"),
        (lambda: SlnElement.from_rows([[0, 1], [0, 0]])._replace(n=3), "entries must form an 3x3 matrix"),
        (lambda: SlnElement._make([2, ((1, 0), (0, 1))]), "trace must be zero, got 2"),
        (lambda: Partition((2, 1))._replace(parts=(1, 2)), "parts must be weakly decreasing: (1, 2)"),
        (lambda: Partition._make([()]), "a partition needs at least one part"),
    ],
)
def test_make_and_replace_validate(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_make_and_replace_round_trip():
    for value in build_values():
        assert value._replace() == value and type(value._replace()) is type(value)
        assert type(value)._make(value) == value
    assert Root((1, 0))._replace(coeffs=(0, 1)) == Root((0, 1))
    assert CartanType("E", 6)._replace(rank=8) == CartanType("E", 8)


def test_fields_cannot_be_assigned():
    for value in build_values():
        for name in FIELDS[type(value)]:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1


def test_equal_values_compare_and_hash_equal():
    for a, b in zip(build_values(), build_values()):
        assert a is not b
        assert a == b and hash(a) == hash(b), type(a).__name__
    assert Root((1, 0)) != Root((0, 1))
    assert Partition((2, 1)) != Partition((1, 1, 1))


def test_keyword_construction_and_repr():
    for value in build_values():
        names = FIELDS[type(value)]
        assert type(value)(**{name: getattr(value, name) for name in names}) == value
    x = SlnElement(n=2, entries=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))
    assert x == SlnElement.from_rows([[0, 1], [0, 0]])
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert str(CartanType("E", 8)) == "E8" and str(Partition((2, 1))) == "2+1"


def test_root_system_holds_only_its_roots():
    # no derived set of root vectors rides along in ==, hash or repr
    assert RootSystem._fields == ("ctype", "cartan_matrix", "roots", "positive_roots")
    a, b = (build_root_system(CartanType("E", 8)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert "frozenset" not in repr(a)


def test_reduced_word_length_counts_letters():
    assert len(ReducedWord((1, 2, 1))) == 3
    assert len(ReducedWord(())) == 0
    assert len(longest_element(build_root_system(CartanType("E", 8)))) == 120


def test_scalar_multiplication_commutes_and_never_repeats():
    x = SlnElement.from_rows([[1, 2], [3, -1]])
    for scalar in (2, -1, Fraction(1, 3), 0):
        assert x * scalar == scalar * x
        assert type(x * scalar) is SlnElement and (x * scalar).n == 2
    assert (x * 2).entries == ((2, 4), (6, -2))
    with pytest.raises(TypeError):
        x * x  # noqa: B018
