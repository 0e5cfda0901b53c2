"""Test-side references for the identities behind the uniqueness forms.

A run computes only the forms it reports (brezis_oswald_check and
coupled_uniqueness_check); the identities that make those forms a
uniqueness indicator are checked here, on one-signed functions (an
all-negative set enters through its absolute values, as the forms do).
"""

import numpy as np

from groundstate import brezis_oswald_check, sphere_area


def brezis_oswald_identity(op, u, v) -> tuple[float, float]:
    """(T, T - rhs) for brezis_oswald_check's form T of u, v.

    rhs is the edge-midpoint quadrature of
    v_mid^2*((u/v)')^2 + u_mid^2*((v/u)')^2 over interior edges, which is
    nonnegative and vanishes iff u/v is constant; the identity gap T - rhs
    shrinks at second order under grid refinement, so T's sign is
    structural, not a quadrature artifact.
    """
    t = brezis_oswald_check(op, u, v)
    us, vs = np.abs(u), np.abs(v)
    grid = op.grid
    h = grid.h
    r = grid.r
    r_mid = 0.5 * (r[:-1] + r[1:])
    w_mid = sphere_area(grid.space_dim) * r_mid ** (grid.space_dim - 1) * h
    u_mid = 0.5 * (us[:-1] + us[1:])
    v_mid = 0.5 * (vs[:-1] + vs[1:])
    duv = np.diff(us / vs) / h
    dvu = np.diff(vs / us) / h
    rhs = float(np.dot(w_mid, v_mid**2 * duv**2 + u_mid**2 * dvu**2))
    return t, t - rhs


def coupled_cross_terms(op, u_pair, v_pair) -> tuple[float, float]:
    """(closed, raw): the coupling part of the coupled form T2, two ways.

    raw is quadrature((u2/u1 - v2/v1)(u1^2 - v1^2) + (u1/u2 - v1/v2)(u2^2 - v2^2))
    evaluated from the ratio differences; closed is its closed-square form

        -quadrature((sqrt(u2 v1^2/u1) - sqrt(u1 v2^2/u2))^2 + (u <-> v)),

    nonpositive by construction.
    """
    u1, u2, v1, v2 = (np.abs(x) for x in (*u_pair, *v_pair))
    wq = op.grid.quad_weights
    raw = float(np.dot(wq, (u2 / u1 - v2 / v1) * (u1**2 - v1**2))) + float(
        np.dot(wq, (u1 / u2 - v1 / v2) * (u2**2 - v2**2))
    )
    closed = -float(
        np.dot(wq, (np.sqrt(u2 * v1**2 / u1) - np.sqrt(u1 * v2**2 / u2)) ** 2)
        + np.dot(wq, (np.sqrt(v2 * u1**2 / v1) - np.sqrt(v1 * u2**2 / v2)) ** 2)
    )
    return closed, raw
