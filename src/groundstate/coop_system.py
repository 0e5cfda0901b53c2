"""Cooperative 2x2 systems (L - A)U = mu*U + F(U) via diagonalization.

F(U) = (phi g1(u1), phi g2(u2)), each g_i(u) the r-independent case of
the paper's g(r, u) (semilinear_solver.Nonlinearity).

The coupling matrix A = [[a, b], [c, d]] with b, c > 0 has a simple
dominant eigenvalue xi1 with positive eigenvector Y, and the change of
variables V = P^{-1} U decouples the linear part into scalar solves at
shifts mu + xi1 and mu + xi2.  The system inherits the scalar picture
with Lambda replaced by Lambda* = Lambda - xi1 and phi replaced by the
vector groundstate Y*phi: near Lambda* the iteration stays in a rectangle
of groundstate multiples componentwise, the dominant diagonalized
component v1 blows up like 1/(Lambda* - mu), and v2 stays bounded.  A
solve returns the scalar solve's FixedPointReport with the components
u1, u2 as its solution and v2's X-norm (no decoupled array), and
system_two_start runs the scalar two_start.  The rectangle is a
Bracket, the scalar solve's order interval with 2 x n edges, one row per
component, and a sweep that leaves it at too many nodes raises the
scalar BracketEscape.  The iterates lie in the rectangle by clipping, so
a solve is certified on the image T(U) of its limit: T(U) may leave the
rectangle at no node by more than the certificate slack
(semilinear_solver.outside_count), which fails for a limit of clip(T)
that is not a fixed point of T.  Inside the window the rectangle has the
branch sign (kappa' > 0), so that check is the whole GSP/GSN
certificate.  The iteration is the scalar one
(semilinear_solver.clipped_fixed_point): verified Picard sweeps around
Newton steps, here block Gauss-Seidel steps that solve the decoupled
Jacobian L - mu - xi_i - M_ii once per component, M = P^{-1} D P with D
the nodewise derivative of F.  Each sweep and each Newton step eliminates
its shifted operators afresh (one gtsv per component), so a solve holds
no factorization of T - (mu + xi1) or T - (mu + xi2).

Uniqueness diagnostics extend Brezis-Oswald: the coupled quadratic form
T1 (Laplacian ratios, weighted 1/b and 1/c) equals T2 (coupling plus
nonlinearity ratios).  T1 is nonnegative by the scalar identity, and the
coupling part of T2 has the closed square form

    -(sqrt(u2 v1^2 / u1) - sqrt(u1 v2^2 / u2))^2 - (u <-> v)

node by node, hence is nonpositive; when the nonlinearity ratios are
strictly decreasing both sides are pinched to zero exactly when the two
candidate pairs coincide.  A run reports T1 and checks that it is not
below -1e-8; T2 is not evaluated.

A SystemProblem holds (L, A, F) for a whole sweep, L as the spectrum
summary that carries it, and is checked against the vector groundstate
identity once; the shift mu is an argument of each solve and of the
rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, NotCooperative, SingularResolvent, WindowViolation
from .groundstate_space import WindowEstimate, x_norm
from .semilinear_solver import (
    Bracket,
    FixedPointReport,
    Nonlinearity,
    _ratio_forms,
    clipped_fixed_point,
    fixed_point_report,
    two_start,
)
from .spectral import DiscreteOperator, SpectrumSummary

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

    def recouple(self, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """P (w1, w2) as one 2 x n block, row i = P_i1 w1 + P_i2 w2 bit for bit.

        The products are formed in the block's rows (out=), so one n-vector
        (P_22 w2) is the only temporary.
        """
        p = self.p
        u = np.empty((2, w1.size))
        np.multiply(p[0, 0], w1, out=u[0])
        np.multiply(p[0, 1], w2, out=u[1])
        u[0] += u[1]
        np.multiply(p[1, 0], w1, out=u[1])
        u[1] += p[1, 1] * w2
        return u


def analyze_matrix(a: float, b: float, c: float, d: float) -> CoopMatrix:
    """Closed-form eigenstructure of a cooperative matrix, verified.

    Raises NotCooperative unless all entries are finite and b > 0 and c > 0
    (the off-diagonal positivity that makes xi1 dominant with a positive
    eigenvector).  xi1 - a and a - xi2 are each formed without
    cancellation, so a coupling bc far below (a - d)^2 keeps full relative
    precision in y, P and P^{-1} on either side of a = d.  A coupling so
    small that bc underflows can leave xi1 = xi2 or y2 = 0; unless
    xi1 > xi2 and y > 0 entrywise NotCooperative is raised before P^{-1}
    is formed.  The assembled identities A y = xi1 y, P^{-1} P = I and
    P^{-1} A P diagonal are checked to 1e-10 relative before the matrix
    is returned; residuals that overflow fail as an inf or NaN err, with
    no warning.
    """
    if not all(map(math.isfinite, (a, b, c, d))):
        raise NotCooperative("matrix entries must be finite")
    if not (b > 0.0 and c > 0.0):
        raise NotCooperative("need b > 0 and c > 0")
    disc = (a - d) ** 2 + 4.0 * b * c
    sq = math.sqrt(disc)
    xi1 = 0.5 * (a + d + sq)
    xi2 = 0.5 * (a + d - sq)
    # up = xi1 - a and down = a - xi2, each in a form that adds terms of one
    # sign: (sq - |a - d|)/2 = 2bc/(sq + |a - d|) cancels in the first form
    up = 0.5 * (d - a + sq) if d >= a else 2.0 * b * c / (a - d + sq)
    down = 0.5 * (a - d + sq) if a >= d else 2.0 * b * c / (d - a + sq)
    if not (xi1 > xi2 and up > 0.0):
        raise NotCooperative(
            f"coupling too weak to resolve in double precision: xi1 = {xi1:.3g}, "
            f"xi2 = {xi2:.3g}, y = ({b:.3g}, {up:.3g}); need xi1 > xi2 and y > 0"
        )
    y = np.array([b, up])
    p = np.array([[b, b], [up, -down]])
    p_inv = np.array([[down, b], [up, -b]]) / (b * (up + down))
    m = CoopMatrix(
        a=float(a), b=float(b), c=float(c), d=float(d),
        xi1=xi1, xi2=xi2, y=y, p=p, p_inv=p_inv,
    )
    arr = m.as_array
    scale = float(np.max(np.abs(arr))) + sq
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite err is refused below
        err = float(np.max([
            np.max(np.abs(arr @ y - xi1 * y)),
            np.max(np.abs(p_inv @ p - np.eye(2))) * scale,
            np.max(np.abs(p_inv @ arr @ p - np.diag([xi1, xi2]))),
        ]))
    if not err <= ALGEBRA_RTOL * scale:
        raise NotCooperative(f"eigendecomposition identities lost precision (err {err:.3g})")
    return m


def inherited_bounds(m: CoopMatrix, kappa: float, k_upper: float) -> tuple[float, float]:
    """kappa', K' = kappa, K times (a - xi2 + b)/(b*(xi1 - xi2))."""
    factor = (m.a - m.xi2 + m.b) / (m.b * (m.xi1 - m.xi2))
    return kappa * factor, k_upper * factor


@dataclass(frozen=True)
class SystemProblem:
    """One system instance: spectrum (with its operator), coupling and data."""

    spectrum: SpectrumSummary
    matrix: CoopMatrix
    nl1: Nonlinearity
    nl2: Nonlinearity
    kappa: float
    k_upper: float
    lambda_star: float


def system_problem(
    spectrum: SpectrumSummary, m: CoopMatrix, nl1: Nonlinearity, nl2: Nonlinearity
) -> SystemProblem:
    """Bundle the data and verify (L - A)(Y phi) = Lambda* (Y phi), L = spectrum.op.

    The identity is exact modulo the eigen-residual of phi, which itself
    scales with eps*||L|| on fine grids, so the tolerance carries both a
    1e-8 relative term and that arithmetic floor.  A failure means phi is
    not an eigenvector of L, or Y not one of A, to that accuracy.
    """
    op, phi = spectrum.op, spectrum.phi
    lam_star = spectrum.Lambda - m.xi1
    arr = m.as_array
    lphi = op.matvec(phi)
    scale = op.grid.norm(phi) * (abs(spectrum.Lambda) + abs(m.xi1) + 1.0)
    floor = 100.0 * np.finfo(float).eps * op.norm_bound * op.grid.norm(phi)
    for i in range(2):
        resid = m.y[i] * lphi - (arr[i, 0] * m.y[0] + arr[i, 1] * m.y[1]) * phi \
            - lam_star * m.y[i] * phi
        # measured in units of scale*y[i], one division at a time (their
        # product can overflow): resid**2 can overflow where resid does not
        if op.grid.norm(resid / scale / m.y[i]) > 1e-8 + floor / scale:
            raise SingularResolvent("system groundstate identity failed; data inconsistent")
    kappa = min(nl1.kappa, nl2.kappa)
    k_upper = max(nl1.k_upper, nl2.k_upper)
    return SystemProblem(
        spectrum=spectrum, matrix=m, nl1=nl1, nl2=nl2,
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


def rectangle(p: SystemProblem, mu: float) -> Bracket:
    """The rectangle of groundstate multiples the iteration at mu runs in, as a Bracket.

    Component i has the ratio edges lo[i] and hi[i] (u_i/phi in
    [lo[i], hi[i]]), from kappa*y/(y_max*(Lambda* - mu)) and
    K*y/(y_min*(Lambda* - mu)); lower and upper are the 2 x n node arrays
    lo[i]*phi and hi[i]*phi, and bound_lo/bound_hi are min lo and max hi.
    """
    if mu == p.lambda_star:
        raise WindowViolation("mu = Lambda* has no resolvent")
    y = p.matrix.y
    y_min, y_max = float(y.min()), float(y.max())
    a = p.kappa * y / (y_max * (p.lambda_star - mu))
    b = p.k_upper * y / (y_min * (p.lambda_star - mu))
    lo, hi = (a, b) if mu < p.lambda_star else (b, a)
    phi = p.spectrum.phi
    return Bracket(
        lower=lo[:, None] * phi[None, :],
        upper=hi[:, None] * phi[None, :],
        bound_lo=float(np.min(lo)),
        bound_hi=float(np.max(hi)),
        kind="MP" if mu < p.lambda_star else "AMP",
    )


def _system_sweep(p: SystemProblem, mu: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One map U -> P solve(P^{-1} F(U)) on the 2 x n iterate; returns (U', v2).

    The two scalar solves are verified solves at mu + xi1 and mu + xi2.
    Each decoupled right-hand side is dropped once its solve is done, and
    U' is recoupled in one 2 x n block (CoopMatrix.recouple).
    """
    op, m = p.spectrum.op, p.matrix
    phi = p.spectrum.phi
    g1, g2 = m.decouple(phi * p.nl1(u[0]), phi * p.nl2(u[1]))
    v1 = op.solve_shifted(mu + m.xi1, g1)
    g1 = None
    v2 = op.solve_shifted(mu + m.xi2, g2)
    g2 = None
    return m.recouple(v1, v2), v2


def _system_newton(p: SystemProblem, mu: float, u: np.ndarray) -> np.ndarray | None:
    """Block Gauss-Seidel Newton iterate at the 2 x n iterate U, or None on a zero pivot.

    In the diagonalized coordinates v = P^{-1}U, with
    G = P^{-1}(phi g1(u1), phi g2(u2)) and, node by node, M = P^{-1} D P
    for D = diag(phi g1_u(u1), phi g2_u(u2)), the Newton system
    (L - mu - xi_i) w_i - (M w)_i = G_i - (M v)_i is solved block
    lower-triangularly (M12 w2 taken at w2 = v2):

        w1 = (L - mu - xi1 - M11)^{-1} (G1 - M11 v1)
        w2 = (L - mu - xi2 - M22)^{-1} (G2 - M22 v2 + M21 (w1 - v1))

    Since G - M v = P^{-1}(F - D U), the right-hand sides are formed as
    (P^{-1}(F - D U))_1 + M12 v2 and (P^{-1}(F - D U))_2 + M21 w1, which
    need v2 only.  Each w_i is one unverified tridiagonal solve
    (solve_unverified, a fresh elimination); the returned P w is a search
    direction, whose limit the sweeps verify.  Each right-hand side is
    dropped once its elimination is done, and the diagonals D once M22
    is formed, so the w2 elimination holds neither; P w is recoupled in
    one 2 x n block (CoopMatrix.recouple).
    """
    op, m = p.spectrum.op, p.matrix
    phi = p.spectrum.phi
    pi, pp = m.p_inv, m.p
    d1 = phi * p.nl1.derivative(u[0])
    d2 = phi * p.nl2.derivative(u[1])

    def entry(i: int, j: int) -> np.ndarray:  # M_ij = sum_k (P^{-1})_ik D_k P_kj
        return (pi[i, 0] * pp[0, j]) * d1 + (pi[i, 1] * pp[1, j]) * d2

    def newton_rhs(nl: Nonlinearity, ui: np.ndarray, di: np.ndarray) -> np.ndarray:
        h = phi * nl(ui)  # (F - D U)_i
        h -= di * ui
        return h

    q1, q2 = m.decouple(newton_rhs(p.nl1, u[0], d1), newton_rhs(p.nl2, u[1], d2))
    q1 += entry(0, 1) * (pi[1, 0] * u[0] + pi[1, 1] * u[1])
    w1 = op.solve_unverified(mu + m.xi1, entry(0, 0), q1)
    q1 = None
    if w1 is None:
        return None
    q2 += entry(1, 0) * w1
    m22 = entry(1, 1)
    d1 = d2 = None
    w2 = op.solve_unverified(mu + m.xi2, m22, q2)
    q2 = m22 = None
    if w2 is None:
        return None
    return m.recouple(w1, w2)


def solve_system(
    p: SystemProblem,
    w: WindowEstimate,
    mu: float,
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
    start: str = "lower",
) -> FixedPointReport:
    """Clipped rectangle iteration for the cooperative system at shift mu.

    Runs clipped_fixed_point on the 2 x n iterate from the requested
    rectangle corner, every sweep one verified solve at mu + xi1 and one
    at mu + xi2.  Sweep 1 is a verified Picard sweep; then block
    Gauss-Seidel Newton steps in the diagonalized coordinates
    (_system_newton, two unverified tridiagonal solves each) run until
    their rate predicts convergence, and one plain verified sweep and the
    verified image of the limit close the solve.  A step whose X-norm step
    does not fall, or Newton steps that do not halve it (see
    clipped_fixed_point), switch to sweeps damped by damping for the rest
    of the solve; damping = 1 takes plain Picard steps throughout.
    Clipped nodes count as rectangle violations, a sweep
    clipping more than ESCAPE_FRACTION of all nodes raises
    BracketEscape, and convergence is measured in the componentwise max
    X-norm.  The row is certified when the limit's image leaves the
    rectangle at no node.
    """
    window = window_system(p, w)
    dist = abs(p.lambda_star - mu)
    if not (0.0 < dist < window):
        raise WindowViolation(
            f"|Lambda* - mu| = {dist:.6g} outside the certified window {window:.6g}"
        )
    phi = p.spectrum.phi
    bracket = rectangle(p, mu)
    fp = clipped_fixed_point(
        lambda u: _system_sweep(p, mu, u),
        lambda u: _system_newton(p, mu, u),
        bracket, bracket.end(start), phi, damping, max_iter, tol_x,
    )
    _, kup = inherited_bounds(p.matrix, p.kappa, p.k_upper)
    return fixed_point_report(
        p.spectrum, bracket, fp,
        # lo <= hi in every component, so no edge is larger in size than both ends
        xnorm_bound=max(abs(bracket.bound_lo), abs(bracket.bound_hi)),
        certified=fp.outside_at_limit == 0,
        v2_xnorm=x_norm(fp.aux, phi),
        # mu-uniform: inside the window Lambda - (mu + xi2) >= (xi1 - xi2)/2
        v2_bound=2.0 * kup / (p.matrix.xi1 - p.matrix.xi2) + 2.0 * w.c0 * kup,
    )


def coupled_uniqueness_check(
    op: DiscreteOperator,
    u_pair: tuple[np.ndarray, np.ndarray],
    v_pair: tuple[np.ndarray, np.ndarray],
    m: CoopMatrix,
) -> float:
    """The coupled Brezis-Oswald form T1 = T(u1, v1)/b + T(u2, v2)/c of two candidate pairs.

    T is semilinear_solver.brezis_oswald_check's form.  All four
    components must share one strict sign, else SignMixed is raised.  T1
    is nonnegative up to quadrature error, so T1 < -1e-8 raises
    HypothesisViolated.
    """
    lap = _ratio_forms(
        op, zip(u_pair, v_pair), "all four components must be strictly one-signed, same sign"
    )
    t1 = lap[0] / m.b + lap[1] / m.c
    if t1 < -1e-8:
        raise HypothesisViolated(f"coupled form T1 = {t1:.3g} below -1e-8")
    return t1


def system_two_start(
    p: SystemProblem,
    w: WindowEstimate,
    mu: float,
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
) -> FixedPointReport:
    """two_start of solve_system, with the coupled form T1 of the pair.

    brezis_oswald_residual is coupled_uniqueness_check's T1 of the two
    limits, and two_start_gap the larger X-distance of their components.
    """
    return two_start(
        lambda start: solve_system(
            p, w, mu, damping=damping, max_iter=max_iter, tol_x=tol_x, start=start,
        ),
        lambda lower, upper: coupled_uniqueness_check(p.spectrum.op, lower, upper, p.matrix),
        p.spectrum.phi,
    )
