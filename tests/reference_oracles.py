"""Test-side reference oracles: independent methods the run path is checked against.

No ``groundstate run`` calls any of these; they live with the tests so that
an oracle cannot drift into sharing code with the path it checks.

* ``monotone_solve`` -- classical monotone iteration from the bracket
  endpoints, a cross-check of solve_semilinear's clipped Newton iteration
  (it reuses make_bracket, apply_T, outside_count and _finish_report from
  semilinear_solver, so that its report reads like a run's);
* ``block_solve`` -- a direct pentadiagonal solve of a 2x2 system without
  diagonalizing, a cross-check of solve_system;
* ``eigenpairs`` -- the first k eigenvalues with their eigenfunctions,
  which give tests phi2;
* ``quadratic_form``, ``ball_volume`` and ``truncation_margin`` -- the
  discrete V-norm, the closed-form ball volume and the truncation margin
  of a grid;
* ``reference_x_norm`` and ``reference_outside_count`` -- the former
  one-expression forms of x_norm and outside_count, whose bits and counts
  the in-place forms must reproduce.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg import solve_banded

from groundstate import (
    CoopMatrix,
    DiscreteOperator,
    Grid,
    GroundstateError,
    Nonlinearity,
    RadialPotential,
    SemilinearReport,
    SpectrumSummary,
    UniquenessDiagnostics,
    WindowEstimate,
    decompose,
    eigenvalues,
    sphere_area,
    x_norm,
)
from groundstate import semilinear_solver
from groundstate.errors import MalformedInput, NoConvergence, SingularResolvent, WindowViolation
from groundstate.groundstate_space import CERT_SLACK
from groundstate.semilinear_solver import Bracket, _finish_report, make_bracket, outside_count
from groundstate.spectral import eigenfunctions


class MonotonicityBroken(GroundstateError):
    """Monotone iteration lost its nodewise ordering; the shift is too small."""


def _lipschitz_estimate(
    nl: Nonlinearity, r: np.ndarray, phi: np.ndarray, bracket: Bracket
) -> float:
    """Finite-difference bound on the u-Lipschitz constant of phi*g(r, u)."""
    lo = float(np.min(bracket.lower))
    hi = float(np.max(bracket.upper))
    us = np.linspace(lo, hi, 33)
    best = 0.0
    prev = phi * nl(r, np.full_like(r, us[0]))
    for uval in us[1:]:
        cur = phi * nl(r, np.full_like(r, uval))
        best = max(best, float(np.max(np.abs(cur - prev))) / (us[1] - us[0]))
        prev = cur
    return best


def monotone_solve(
    spectrum: SpectrumSummary,
    w: WindowEstimate,
    nl: Nonlinearity,
    mu: float,
    shift: float | None = None,
    max_iter: int = 2000,
    tol_x: float = 1e-10,
) -> SemilinearReport:
    """Monotone iteration u_{k+1} = (L - mu + M)^{-1}(f(u_k) + M u_k).

    Needs mu < Lambda: the bracket endpoints are then genuine sub- and
    supersolutions, and with M at least the Lipschitz constant of f the
    scheme is order-preserving, so the lower start increases and the upper
    start decreases.  A step that breaks monotonicity beyond rounding
    raises MonotonicityBroken.  Returns the lower limit as solution, the
    upper limit in solution_upper, and their X-gap in uniqueness.  The
    sweeps solve at the shift mu - M; the image T(u) of the lower limit,
    which gives residual_x and the certificate's outside_count, at mu.
    """
    lam = spectrum.Lambda
    if mu >= lam:
        raise WindowViolation("monotone scheme needs mu < Lambda")
    op, phi = spectrum.op, spectrum.phi
    r = op.grid.r
    bracket = make_bracket(spectrum, nl, mu)
    m_shift = 1.5 * _lipschitz_estimate(nl, r, phi, bracket) if shift is None else float(shift)
    if m_shift < 0:
        raise MalformedInput("shift must be >= 0")

    def sweep(u: np.ndarray) -> np.ndarray:
        return op.solve_shifted(mu - m_shift, phi * nl(r, u) + m_shift * u)

    limits = []
    total_iters = 0
    for u, direction in ((bracket.lower.copy(), +1.0), (bracket.upper.copy(), -1.0)):
        converged = False
        for k in range(1, max_iter + 1):
            un = sweep(u)
            drift = float(np.min(direction * (un - u)))
            if drift < -1e-10 * max(1.0, float(np.max(np.abs(u)))):
                raise MonotonicityBroken(f"ordered iterate moved the wrong way by {-drift:.3g}")
            step = x_norm(un - u, phi)
            u = un
            if step < tol_x:
                total_iters += k
                converged = True
                break
        if not converged:
            raise NoConvergence(f"monotone sweep stalled above {tol_x:g}", iterations=max_iter)
        limits.append(u)
    lower_limit, upper_limit = limits
    # looked up on the module, so that a test patching semilinear_solver.apply_T reaches it
    t = semilinear_solver.apply_T(spectrum, nl, mu, lower_limit)
    gap = x_norm(upper_limit - lower_limit, phi)
    report = _finish_report(
        spectrum, w, nl, mu, lower_limit, bracket,
        iterations=total_iters,
        residual_x=x_norm(lower_limit - t, phi),
        violations=0,
        outside=outside_count(t, bracket.lower, bracket.upper),
    )
    return replace(
        report,
        uniqueness=UniquenessDiagnostics(two_start_gap=gap, brezis_oswald_residual=None),
        solution_upper=decompose(upper_limit, phi, op.grid.quad_weights),
    )


def block_solve(
    op: DiscreteOperator,
    m: CoopMatrix,
    mu: float,
    f1: np.ndarray,
    f2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct coupled solve of (L - A - mu)U = F without diagonalizing.

    The two components are interleaved into one pentadiagonal system and
    solved in a single banded pass; used as an independent cross-check of
    the diagonalization route.  Residuals of both physical equations are
    verified to 1e-10 relative.
    """
    g1 = op.restrict(f1)
    g2 = op.restrict(f2)
    n = len(g1)
    ab = np.zeros((5, 2 * n))
    ab[2, 0::2] = op.diag - mu - m.a
    ab[2, 1::2] = op.diag - mu - m.d
    ab[1, 1::2] = -m.b
    ab[3, 0:-1:2] = -m.c
    ab[0, 2::2] = op.offdiag
    ab[0, 3::2] = op.offdiag
    ab[4, 0:-2:2] = op.offdiag
    ab[4, 1:-2:2] = op.offdiag
    rhs = np.empty(2 * n)
    rhs[0::2] = g1
    rhs[1::2] = g2
    x = solve_banded((2, 2), ab, rhs)
    u1 = op.extend(x[0::2])
    u2 = op.extend(x[1::2])
    r1 = op.matvec(u1) - mu * u1 - m.a * u1 - m.b * u2 - np.asarray(f1, dtype=float)
    r2 = op.matvec(u2) - mu * u2 - m.c * u1 - m.d * u2 - np.asarray(f2, dtype=float)
    mat_norm = op.norm_bound + abs(mu) + max(
        abs(m.a) + abs(m.b), abs(m.c) + abs(m.d)
    )
    denom = max(op.grid.norm(f1), op.grid.norm(f2)) + mat_norm * max(
        op.grid.norm(u1), op.grid.norm(u2)
    )
    if denom > 0 and max(op.grid.norm(r1), op.grid.norm(r2)) > 1e-10 * denom:
        raise SingularResolvent("coupled block solve residual above 1e-10")
    return u1, u2


def eigenpairs(op: DiscreteOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues and quadrature-normalized grid eigenvectors.

    Column j of the returned matrix is the j-th eigenfunction.  Signs are
    not normalized here; use principal_eigenpair for the groundstate.
    """
    vals = eigenvalues(op.diag, op.offdiag, k)
    return vals, eigenfunctions(op, vals)


def quadratic_form(op: DiscreteOperator, u: np.ndarray) -> float:
    """Discrete V-norm squared: quadrature of (Lu)*u.

    Summation by parts makes this the grid realization of
    the integral of |grad u|^2 + q u^2 over R^N (Dirichlet truncated).
    """
    x = op.restrict(u)
    return float(np.dot(x, op._product(x)))


def ball_volume(grid: Grid) -> float:
    """Closed-form volume of the ball of radius r_max (quadrature oracle)."""
    return sphere_area(grid.space_dim) * grid.r_max**grid.space_dim / grid.space_dim


def truncation_margin(grid: Grid, pot: RadialPotential, spectral_scale: float) -> float:
    """q(r_max)/spectral_scale; adequacy means this exceeds the factor in use."""
    return float(pot(np.array([grid.r_max]))[0] / spectral_scale)


def reference_x_norm(v: np.ndarray, phi: np.ndarray) -> float:
    """The former x_norm: sup |v|/phi with |v| and the quotient as two temporaries."""
    return float((np.abs(v) / phi).max())


def reference_outside_count(
    t: np.ndarray, lower: np.ndarray, upper: np.ndarray, floor: float = 0.0
) -> int:
    """The former outside_count, one expression for the slack and one for the distance."""
    slack = np.maximum(floor, CERT_SLACK * np.maximum(np.abs(lower), np.abs(upper)))
    return int(np.count_nonzero(np.abs(t - np.minimum(np.maximum(t, lower), upper)) > slack))
