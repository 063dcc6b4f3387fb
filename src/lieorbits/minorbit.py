"""Minimal nilpotent orbit data for the simple types.

The minimal nonzero nilpotent orbit is the orbit of a highest-root vector;
its projectivization is the flag variety of the parabolic attached to the
simple roots orthogonal to the maximal root.  Everything here is dimension
and root-set bookkeeping: alpha_i is orthogonal to theta exactly when the
integer pairing <theta, alpha_i^vee> read off the Cartan matrix is zero, and
the orbit dimension exceeds the projectivization by one for the scaling
direction.
"""

from __future__ import annotations

from collections import namedtuple

from .rootsys import RootSystem, coroot_pairing, maximal_root, parabolic_data


class MinOrbitReport(namedtuple("MinOrbitReport", "theta pi_theta dim_P_Omin dim_Omin")):
    """Maximal root, its orthogonal simple roots, and the two orbit dimensions."""

    __slots__ = ()


def min_orbit_report(rs: RootSystem) -> MinOrbitReport:
    """Compute the minimal-orbit data from the root system alone."""
    theta = maximal_root(rs)
    pi_theta = frozenset(i for i in range(1, rs.rank + 1) if coroot_pairing(rs, i, theta.coeffs) == 0)
    dim_p_omin = parabolic_data(rs, pi_theta).dim_u
    return MinOrbitReport(
        theta=theta,
        pi_theta=pi_theta,
        dim_P_Omin=dim_p_omin,
        dim_Omin=dim_p_omin + 1,
    )
