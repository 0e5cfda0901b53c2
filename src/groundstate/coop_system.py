"""Cooperative 2x2 systems (L - A)U = mu*U + F(r, U) via diagonalization.

The coupling matrix A = [[a, b], [c, d]] with b, c > 0 has a simple
dominant eigenvalue xi1 with positive eigenvector Y, and the change of
variables V = P^{-1} U decouples the linear part into scalar solves at
shifts mu + xi1 and mu + xi2.  The system inherits the scalar picture
with Lambda replaced by Lambda* = Lambda - xi1 and phi replaced by the
vector groundstate Y*phi: near Lambda* the iteration stays in a rectangle
of groundstate multiples componentwise, the dominant diagonalized
component v1 blows up like 1/(Lambda* - mu), and v2 stays bounded.

Uniqueness diagnostics extend Brezis-Oswald: the coupled quadratic form
T1 (Laplacian ratios, weighted 1/b and 1/c) equals T2 (coupling plus
nonlinearity ratios).  T1 is nonnegative by the scalar identity, and the
coupling part of T2 has the closed square form

    -(sqrt(u2 v1^2 / u1) - sqrt(u1 v2^2 / u2))^2 - (u <-> v)

node by node, hence is nonpositive; when the nonlinearity ratios are
strictly decreasing both sides are pinched to zero exactly when the two
candidate pairs coincide.  A run reports T1 and checks that the closed
square cross term is nonpositive; T2 itself is not evaluated.

A SystemProblem holds (L, A, F) for a whole sweep and is checked against
the vector groundstate identity once; the shift mu is an argument of each
solve and of the rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    HypothesisViolated,
    MalformedInput,
    NotCooperative,
    RectangleEscape,
    SingularResolvent,
    WindowViolation,
)
from .groundstate_space import GroundstateVector, WindowEstimate, decompose, x_norm
from .semilinear_solver import Nonlinearity, UniquenessDiagnostics, clipped_fixed_point
from .semilinear_solver import _ratio_form, _ratio_forms
from .spectral import DiscreteOperator, Factors, SpectrumSummary

WINDOW_RULE_SYSTEM = "min(delta0, kappa'/(2*c0*K'), (xi1-xi2)/2, lambda2-Lambda)"
ALGEBRA_RTOL = 1e-10


@dataclass(frozen=True)
class CoopMatrix:
    """Cooperative coupling matrix with its spectral decomposition.

    xi1 > xi2 are the eigenvalues, y the positive eigenvector for xi1
    (normalized y = (b, xi1 - a)), p the eigenvector matrix and p_inv its
    exact inverse; all entries are closed-form in (a, b, c, d).
    """

    a: float
    b: float
    c: float
    d: float
    xi1: float
    xi2: float
    y: np.ndarray
    p: np.ndarray
    p_inv: np.ndarray

    @property
    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def decouple(self, f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The diagonalized pair P^{-1} (f1, f2)."""
        p_inv = self.p_inv
        return p_inv[0, 0] * f1 + p_inv[0, 1] * f2, p_inv[1, 0] * f1 + p_inv[1, 1] * f2


def analyze_matrix(a: float, b: float, c: float, d: float) -> CoopMatrix:
    """Closed-form eigenstructure of a cooperative matrix, verified.

    Raises NotCooperative unless all entries are finite and b > 0 and c > 0
    (the off-diagonal positivity that makes xi1 dominant with a positive
    eigenvector).  The
    assembled identities A y = xi1 y, P^{-1} P = I and P^{-1} A P diagonal
    are checked to 1e-10 relative before the matrix is returned.
    """
    if not all(map(math.isfinite, (a, b, c, d))):
        raise NotCooperative("matrix entries must be finite")
    if not (b > 0.0 and c > 0.0):
        raise NotCooperative("need b > 0 and c > 0")
    disc = (a - d) ** 2 + 4.0 * b * c
    sq = math.sqrt(disc)
    xi1 = 0.5 * (a + d + sq)
    xi2 = 0.5 * (a + d - sq)
    y = np.array([b, 0.5 * (d - a + sq)])
    p = np.array([[b, b], [xi1 - a, xi2 - a]])
    p_inv = np.array([[a - xi2, b], [xi1 - a, -b]]) / (b * (xi1 - xi2))
    m = CoopMatrix(
        a=float(a), b=float(b), c=float(c), d=float(d),
        xi1=xi1, xi2=xi2, y=y, p=p, p_inv=p_inv,
    )
    arr = m.as_array
    scale = float(np.max(np.abs(arr))) + sq
    checks = (
        np.max(np.abs(arr @ y - xi1 * y)),
        np.max(np.abs(p_inv @ p - np.eye(2))) * scale,
        np.max(np.abs(p_inv @ arr @ p - np.diag([xi1, xi2]))),
    )
    if max(checks) > ALGEBRA_RTOL * scale:
        raise NotCooperative(
            f"eigendecomposition identities lost precision (err {max(checks):.3g})"
        )
    return m


def inherited_bounds(m: CoopMatrix, kappa: float, k_upper: float) -> tuple[float, float]:
    """kappa', K' = kappa, K times (a - xi2 + b)/(b*(xi1 - xi2))."""
    factor = (m.a - m.xi2 + m.b) / (m.b * (m.xi1 - m.xi2))
    return kappa * factor, k_upper * factor


@dataclass(frozen=True)
class SystemProblem:
    """One system instance: operator, spectrum, coupling and data."""

    op: DiscreteOperator
    spectrum: SpectrumSummary
    matrix: CoopMatrix
    nl1: Nonlinearity
    nl2: Nonlinearity
    kappa: float
    k_upper: float
    lambda_star: float


def system_problem(
    op: DiscreteOperator,
    spectrum: SpectrumSummary,
    m: CoopMatrix,
    nl1: Nonlinearity,
    nl2: Nonlinearity,
) -> SystemProblem:
    """Bundle the data and verify (L - A)(Y phi) = Lambda* (Y phi).

    The identity is exact modulo the eigen-residual of phi, which itself
    scales with eps*||L|| on fine grids, so the tolerance carries both a
    1e-8 relative term and that arithmetic floor.  A failure means the
    pieces do not belong together (e.g. spectrum from another operator).
    """
    phi = spectrum.phi.values
    lam_star = spectrum.Lambda - m.xi1
    arr = m.as_array
    lphi = op.matvec(phi)
    scale = op.grid.norm(phi) * (abs(spectrum.Lambda) + abs(m.xi1) + 1.0)
    floor = 100.0 * np.finfo(float).eps * op.norm_bound * op.grid.norm(phi)
    for i in range(2):
        resid = m.y[i] * lphi - (arr[i, 0] * m.y[0] + arr[i, 1] * m.y[1]) * phi \
            - lam_star * m.y[i] * phi
        if op.grid.norm(resid) > (1e-8 * scale + floor) * m.y[i]:
            raise SingularResolvent("system groundstate identity failed; data inconsistent")
    kappa = min(nl1.kappa, nl2.kappa)
    k_upper = max(nl1.k_upper, nl2.k_upper)
    return SystemProblem(
        op=op, spectrum=spectrum, matrix=m, nl1=nl1, nl2=nl2,
        kappa=kappa, k_upper=k_upper, lambda_star=lam_star,
    )


def window_system(p: SystemProblem, w: WindowEstimate) -> float:
    """Certified half-width around Lambda* for the system iteration."""
    kp, kup = inherited_bounds(p.matrix, p.kappa, p.k_upper)
    return min(
        w.delta0,
        kp / (2.0 * w.c0 * kup),
        0.5 * (p.matrix.xi1 - p.matrix.xi2),
        p.spectrum.gap,
    )


@dataclass(frozen=True)
class Rectangle:
    """Componentwise ratio bounds: u_i/phi in (lo[i], hi[i])."""

    lo: np.ndarray
    hi: np.ndarray
    kind: str


def rectangle(p: SystemProblem, mu: float) -> Rectangle:
    """Invariant rectangle of groundstate multiples for the iteration at mu."""
    if mu == p.lambda_star:
        raise WindowViolation("mu = Lambda* has no resolvent")
    y = p.matrix.y
    y_min, y_max = float(y.min()), float(y.max())
    a = p.kappa * y / (y_max * (p.lambda_star - mu))
    b = p.k_upper * y / (y_min * (p.lambda_star - mu))
    if mu < p.lambda_star:
        return Rectangle(lo=a, hi=b, kind="MP")
    return Rectangle(lo=b, hi=a, kind="AMP")


def _system_sweep(
    p: SystemProblem, fac1: Factors, fac2: Factors, u: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """One map U -> P solve(P^{-1} F(U)) on the 2 x n iterate; returns (U', (v1, v2)).

    The two scalar solves use the factors of T - (mu + xi1) and
    T - (mu + xi2), which solve_system makes once for the whole iteration.
    """
    op, m = p.op, p.matrix
    r = op.grid.r
    phi = p.spectrum.phi.values
    g1, g2 = m.decouple(phi * p.nl1(r, u[0]), phi * p.nl2(r, u[1]))
    v1 = op.solve_shifted(fac1, g1)
    v2 = op.solve_shifted(fac2, g2)
    t = np.vstack([m.p[0, 0] * v1 + m.p[0, 1] * v2, m.p[1, 0] * v1 + m.p[1, 1] * v2])
    return t, (v1, v2)


@dataclass(frozen=True)
class SystemReport:
    """Outcome of one system solve in both coordinate systems.

    u1/u2 are the physical components (decomposed against phi); v1/v2 the
    diagonalized ones, of which v1 carries the blow-up and v2 obeys
    ||v2||_X <= v2_bound.  membership_ok re-verifies the rectangle on the
    final iterate; certified additionally demands the rectangle edge have
    the branch sign, which is what GSP/GSN mean for systems.
    """

    u1: GroundstateVector
    u2: GroundstateVector
    v1: np.ndarray
    v2: np.ndarray
    rectangle: Rectangle
    kappa_prime: float
    k_prime: float
    iterations: int
    residual_x: float
    violations: int
    branch: str
    mu: float
    window: float
    v2_bound: float
    v2_ok: bool
    membership_ok: bool
    certified: bool
    min_ratio: np.ndarray
    max_ratio: np.ndarray
    uniqueness: UniquenessDiagnostics | None = None


def solve_system(
    p: SystemProblem,
    w: WindowEstimate,
    mu: float,
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
    start: str = "lower",
) -> SystemReport:
    """Clipped rectangle iteration for the cooperative system at shift mu.

    Factors T - (mu + xi1) and T - (mu + xi2) once and runs
    clipped_fixed_point on the 2 x n iterate from the requested rectangle
    corner, every sweep solving with those factors: steps are secant-mixed
    over both components until the Picard residual stops falling, then
    damped by damping for the rest of the solve; damping = 1 takes plain
    Picard steps throughout.  Clipped
    nodes count as rectangle violations, a sweep clipping more than
    ESCAPE_FRACTION of all nodes raises RectangleEscape, and convergence
    is measured in the componentwise max X-norm.
    """
    window = window_system(p, w)
    dist = abs(p.lambda_star - mu)
    if not (0.0 < dist < window):
        raise WindowViolation(
            f"|Lambda* - mu| = {dist:.6g} outside the certified window {window:.6g}"
        )
    phi = p.spectrum.phi.values
    rect = rectangle(p, mu)
    lo = rect.lo[:, None] * phi[None, :]
    hi = rect.hi[:, None] * phi[None, :]
    if start not in ("lower", "upper"):
        raise MalformedInput("start must be 'lower' or 'upper'")
    fac1, fac2 = p.op.factor(mu + p.matrix.xi1), p.op.factor(mu + p.matrix.xi2)
    fp = clipped_fixed_point(
        lambda u: _system_sweep(p, fac1, fac2, u), lo, hi, lo if start == "lower" else hi, phi,
        RectangleEscape, damping, max_iter, tol_x,
    )
    u = fp.u
    v1, v2 = fp.aux

    kp, kup = inherited_bounds(p.matrix, p.kappa, p.k_upper)
    ratios = u / phi[None, :]
    min_ratio = ratios.min(axis=1)
    max_ratio = ratios.max(axis=1)
    eps = 1e-6 * np.maximum(np.abs(rect.lo), np.abs(rect.hi))
    membership_ok = bool(
        np.all(min_ratio >= rect.lo - eps) and np.all(max_ratio <= rect.hi + eps)
    )
    if rect.kind == "MP":
        signed_ok = bool(np.all(rect.lo > 0.0))
    else:
        signed_ok = bool(np.all(rect.hi < 0.0))
    # mu-uniform: inside the window Lambda - (mu + xi2) >= (xi1 - xi2)/2
    v2_bound = 2.0 * kup / (p.matrix.xi1 - p.matrix.xi2) + 2.0 * w.c0 * kup
    v2_x = x_norm(v2, phi)
    return SystemReport(
        u1=decompose(u[0], phi, p.op.grid.quad_weights),
        u2=decompose(u[1], phi, p.op.grid.quad_weights),
        v1=v1,
        v2=v2,
        rectangle=rect,
        kappa_prime=kp,
        k_prime=kup,
        iterations=fp.iterations,
        residual_x=fp.residual_x,
        violations=fp.violations,
        branch=rect.kind,
        mu=mu,
        window=window,
        v2_bound=v2_bound,
        v2_ok=v2_x <= v2_bound,
        membership_ok=membership_ok,
        certified=membership_ok and signed_ok,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
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


@dataclass(frozen=True)
class CoupledUniqueness:
    """Coupled Brezis-Oswald diagnostics for two candidate pairs.

    t1 is the weighted Laplacian form (nonnegative up to quadrature
    error), cross_term the closed square form of the coupling part
    (nonpositive by construction) and cross_term_raw the same quantity
    evaluated directly from the ratio differences.
    """

    t1: float
    cross_term: float
    cross_term_raw: float


def coupled_uniqueness_check(
    op: DiscreteOperator,
    u_pair: tuple[np.ndarray, np.ndarray],
    v_pair: tuple[np.ndarray, np.ndarray],
    m: CoopMatrix,
) -> CoupledUniqueness:
    """Evaluate the coupled uniqueness identity on two candidate pairs.

    All four components must share one strict sign (an all-negative
    quartet is flipped).  Sanity postconditions t1 >= -1e-8 and
    cross_term <= 1e-8 are enforced; genuine candidate pairs violate them
    only through sign mixing or hypothesis failure.
    """
    ((u1f, v1f), (u2f, v2f)), lap = _ratio_forms(
        op, zip(u_pair, v_pair), "all four components must be strictly one-signed, same sign"
    )
    s = op.start
    u1, u2, v1, v2 = u1f[s:], u2f[s:], v1f[s:], v2f[s:]
    wq = op.grid.quad_weights[s:]
    t1 = lap[0] / m.b + lap[1] / m.c

    cross_raw = _ratio_form(wq, u2, u1, v2, v1) + _ratio_form(wq, u1, u2, v1, v2)
    cross = -float(
        np.dot(wq, (np.sqrt(u2 * v1**2 / u1) - np.sqrt(u1 * v2**2 / u2)) ** 2)
        + np.dot(wq, (np.sqrt(v2 * u1**2 / v1) - np.sqrt(v1 * u2**2 / v2)) ** 2)
    )

    if t1 < -1e-8:
        raise HypothesisViolated(f"coupled form T1 = {t1:.3g} below -1e-8")
    if cross > 1e-8:
        raise HypothesisViolated(f"coupling cross term {cross:.3g} above 1e-8")
    return CoupledUniqueness(t1=t1, cross_term=cross, cross_term_raw=cross_raw)


def system_two_start(
    p: SystemProblem,
    w: WindowEstimate,
    mu: float,
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
) -> SystemReport:
    """Solve from both rectangle corners and attach uniqueness diagnostics."""
    lo = solve_system(p, w, mu, damping=damping, max_iter=max_iter, tol_x=tol_x, start="lower")
    hi = solve_system(p, w, mu, damping=damping, max_iter=max_iter, tol_x=tol_x, start="upper")
    phi = p.spectrum.phi.values
    gap = max(
        x_norm(hi.u1.values - lo.u1.values, phi),
        x_norm(hi.u2.values - lo.u2.values, phi),
    )
    cu = coupled_uniqueness_check(
        p.op, (lo.u1.values, lo.u2.values), (hi.u1.values, hi.u2.values), p.matrix
    )
    diag = UniquenessDiagnostics(two_start_gap=gap, brezis_oswald_residual=cu.t1)
    return replace(lo, uniqueness=diag)
