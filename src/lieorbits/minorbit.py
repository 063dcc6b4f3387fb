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

from .rootsys import (
    CartanType,
    RootSystem,
    build_root_system,
    coroot_pairing,
    maximal_root,
    parabolic_data,
)


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


def type_a_flag_check(n: int) -> bool:
    """Cross-check the type A projectivized minimal orbit against two other routes.

    The projectivization is the variety of (line, hyperplane) incident flags,
    of dimension 2n - 3; the orbit itself must match the partition-route
    dimension of the (2, 1, ..., 1) orbit.
    """
    from .orbits import minimal_orbit, orbit_dim_partition

    if n < 3:
        raise ValueError("n must be at least 3")
    report = min_orbit_report(build_root_system(CartanType("A", n - 1)))
    flag_dim = (n - 1) + (n - 1) - 1
    partition_dim = orbit_dim_partition(minimal_orbit(n))
    return report.dim_P_Omin == flag_dim == 2 * n - 3 and report.dim_Omin == partition_dim
