"""Semisimple-orbit computations over the abstract root system.

A semisimple orbit is encoded by a torus element h in coordinates over the
simple coroots, with Gaussian-rational (exact complex) values.  Membership in
the fundamental domain, the vanishing set of simple roots, Levi stabilizer
dimensions, regularity, and the dual-parabolic root identities are all exact;
zero tests never involve tolerances.

Root values of h come from rootsys.simple_root_values, applied to the real
and imaginary parts, and the Weyl-group walks (w0, the dominant chamber) are
the one integer chamber walk in rootsys.

Stabilizers appear only through root sets and dimensions.  Reduction of an
arbitrary complex h into the fundamental domain is deliberately not offered;
only real h can be reflected to a dominant representative.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .rootsys import (
    ParabolicData,
    ReducedWord,
    Root,
    RootSystem,
    _w0_walk,
    apply_word_root,
    dominant_values,
    dual_subset,
    parabolic_data,
    simple_root_values,
    solve_coroot_coords,
)


class FundamentalDomainError(ValueError):
    """Raised when an operation requires h in the fundamental domain."""

    def __init__(self, index: int, value: "GaussianRational"):
        self.index = index
        self.value = value
        super().__init__(
            f"h is outside the fundamental domain: alpha_{index}(h) = {value} "
            "violates Re >= 0, or Im >= 0 on the Re = 0 wall"
        )


class GaussianRational(namedtuple("GaussianRational", "re im")):
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ()

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        """re + im i from exact parts; a GaussianRational re comes back as it is, so im must be 0."""
        from . import linalg

        if isinstance(re, GaussianRational):
            if linalg.frac(im):
                raise ValueError(f"GaussianRational.of({re}, {im}) would drop the imaginary part {im}")
            return re
        return cls(linalg.frac(re), linalg.frac(im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"


class TorusElement(namedtuple("TorusElement", "coords")):
    """A Cartan element over the simple coroots, with a tuple of exact complex coordinates."""

    __slots__ = ()

    @classmethod
    def of(cls, values) -> "TorusElement":
        return cls(tuple([GaussianRational.of(v) for v in values]))

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self.coords)


def simple_values(rs: RootSystem, h: TorusElement) -> tuple[GaussianRational, ...]:
    """The values alpha_i(h) for every simple root, on the real and imaginary parts."""
    re = simple_root_values(rs, [c.re for c in h.coords])
    im = simple_root_values(rs, [c.im for c in h.coords])
    return tuple([GaussianRational(x, y) for x, y in zip(re, im)])


def _value_on(vals: tuple[GaussianRational, ...], r: Root) -> GaussianRational:
    re = sum([k * v.re for k, v in zip(r.coeffs, vals) if k], Fraction(0))
    im = sum([k * v.im for k, v in zip(r.coeffs, vals) if k], Fraction(0))
    return GaussianRational(re, im)


def root_value(rs: RootSystem, h: TorusElement, r: Root) -> GaussianRational:
    return _value_on(simple_values(rs, h), r)


def _first_violation(vals: tuple[GaussianRational, ...]) -> tuple[int, GaussianRational] | None:
    for i, v in enumerate(vals, start=1):
        if v.re < 0 or (v.re == 0 and v.im < 0):
            return i, v
    return None


def _vanishing(vals: tuple[GaussianRational, ...]) -> frozenset[int]:
    return frozenset(i for i, v in enumerate(vals, start=1) if v.is_zero())


def in_fundamental_domain(rs: RootSystem, h: TorusElement) -> bool:
    """Exact test: Re(alpha(h)) >= 0 for simple alpha, and Im >= 0 on Re = 0 walls."""
    return _first_violation(simple_values(rs, h)) is None


def pi_of_h(rs: RootSystem, h: TorusElement) -> frozenset[int]:
    """Indices of the simple roots vanishing exactly on h."""
    return _vanishing(simple_values(rs, h))


def centralizer_root_set(rs: RootSystem, h: TorusElement) -> tuple[Root, ...]:
    """All roots vanishing on h, in canonical order.

    When h lies in the fundamental domain this set must coincide with the
    Levi root set of the vanishing simple roots; a mismatch raises RuntimeError.
    """
    vals = simple_values(rs, h)
    out = tuple([r for r in rs.roots if _value_on(vals, r).is_zero()])
    if _first_violation(vals) is None:
        levi = parabolic_data(rs, _vanishing(vals)).delta_s
        if set(out) != set(levi):
            raise RuntimeError("vanishing roots differ from the Levi root set inside D")
    return out


def _pi_in_domain(rs: RootSystem, h: TorusElement) -> frozenset[int]:
    """Pi(h), read off one evaluation of the simple values; raises outside the domain."""
    vals = simple_values(rs, h)
    violation = _first_violation(vals)
    if violation is not None:
        raise FundamentalDomainError(*violation)
    return _vanishing(vals)


def ss_orbit_dim(rs: RootSystem, h: TorusElement) -> int:
    """Orbit dimension |roots| - |Levi roots of Pi(h)|; requires h in the domain."""
    return len(rs.roots) - len(parabolic_data(rs, _pi_in_domain(rs, h)).delta_s)


def is_regular_semisimple(rs: RootSystem, h: TorusElement) -> bool:
    """Full-dimensional orbit: no simple root vanishes on h."""
    return not _pi_in_domain(rs, h)


class DualParabolicReport(
    namedtuple(
        "DualParabolicReport",
        "subset dual w0_image_is_plus intersection_roots intersection_is_levi dim_intersection dim_l plus_counts_equal",
    )
):
    """Root-level verification data for the dual-parabolic statements."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.w0_image_is_plus and self.intersection_is_levi and self.plus_counts_equal


def verify_dual_parabolic(rs: RootSystem, subset) -> DualParabolicReport:
    """Check, at the root level, the three dual-parabolic identities.

    (a) the longest element maps the negative Levi roots of the dual subset
    onto the positive Levi roots of the subset; (b) the root set of the
    intersection of the parabolic with the w0-image of the dual parabolic is
    exactly the Levi root set; (c) the positive Levi root counts agree.
    """
    s = frozenset(subset)
    pd_s: ParabolicData = parabolic_data(rs, s)
    letters, sigma = _w0_walk(rs)
    w0 = ReducedWord(letters)
    sv = frozenset([sigma[i - 1] for i in s])  # parabolic_data has checked each index
    pd_sv: ParabolicData = parabolic_data(rs, sv)

    image = {apply_word_root(rs, w0, r) for r in pd_sv.delta_s_minus}
    w0_ok = image == set(pd_s.delta_s_plus)

    p_s_roots = set(rs.positive_roots) | set(pd_s.delta_s_minus)
    p_dual_roots = {apply_word_root(rs, w0, r) for r in rs.positive_roots} | image
    inter = p_s_roots & p_dual_roots
    inter_ok = inter == set(pd_s.delta_s)

    return DualParabolicReport(
        subset=s,
        dual=sv,
        w0_image_is_plus=w0_ok,
        intersection_roots=tuple([r for r in rs.roots if r in inter]),
        intersection_is_levi=inter_ok,
        dim_intersection=rs.rank + len(inter),
        dim_l=pd_s.dim_l,
        plus_counts_equal=len(pd_s.delta_s_plus) == len(pd_sv.delta_s_plus),
    )


def compactification_dims(rs: RootSystem, h: TorusElement) -> tuple[int, int, int]:
    """(orbit dim, dim G/P, dim G/P*) for h in the domain; the first is twice the second."""
    s = _pi_in_domain(rs, h)
    pd = parabolic_data(rs, s)
    dim_orbit = len(rs.roots) - len(pd.delta_s)
    dim_gp = pd.dim_u
    dim_gp_star = parabolic_data(rs, dual_subset(rs, s)).dim_u
    if dim_orbit != 2 * dim_gp or dim_gp != dim_gp_star:
        raise RuntimeError("dimension identity failed; this contradicts the dual-parabolic count")
    return dim_orbit, dim_gp, dim_gp_star


def dominant_representative(rs: RootSystem, h: TorusElement) -> TorusElement:
    """Reflect a real torus element into the dominant chamber.

    Walks the simple-root values of h, reflecting at the least index with a
    negative value; terminates in at most |positive roots| steps.  Complex
    coordinates are rejected: a canonical reduction for those would need an
    ordering convention this module does not fix.
    """
    if not h.is_real():
        raise ValueError("dominant_representative supports real coordinates only")
    values = dominant_values(rs, simple_root_values(rs, [c.re for c in h.coords]))
    return TorusElement.of(solve_coroot_coords(rs, values))
