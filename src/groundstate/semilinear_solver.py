"""Semilinear solves -Delta u + q u = mu u + phi*g(r, u) near Lambda.

The right-hand side is groundstate-modulated: f(r, u) = phi(r) g(r, u)
with kappa <= g <= K.  For mu inside the window
min{delta0, kappa/(2*c0*K)} the fixed-point map
T(u) = (L - mu)^{-1} f(r, u) is iterated in the bracket

    MP  (mu < Lambda):  kappa*phi/(Lambda-mu) <= u <= K*phi/(Lambda-mu)
    AMP (mu > Lambda):  K*phi/(Lambda-mu) <= u <= kappa*phi/(Lambda-mu)

On the MP branch the maximum principle makes the bracket invariant.  On
the AMP branch there is none, and the bracket is not invariant: mostly
for N <= 2 the first image T(bracket end) can leave it at more than
ESCAPE_FRACTION of the nodes, which raises BracketEscape on sweep 1
(exit 3 from the command line).  The limit inherits the bracket's sign:
u >= kappa*phi/(Lambda-mu) on the MP branch (groundstate positivity,
blowing up like 1/(Lambda-mu)) and u <= kappa*phi/(Lambda-mu) < 0 on the
AMP branch.  Both certificates are re-verified pointwise on the computed
solution.  The iteration (clipped_fixed_point) takes secant-mixed steps
until its Picard residual stops falling, then damped ones.

A classical monotone iteration from the bracket endpoints is provided as
an independent cross-check, and a discrete Brezis-Oswald identity gives a
uniqueness diagnostic: for two positive candidates the quadratic form
quadrature((Lu/u - Lv/v)(u^2 - v^2)) equals a manifestly nonnegative
gradient-ratio quadrature, so its value (and the gap between the two
iteration limits) measures how far the pair is from coinciding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import (
    BracketEscape,
    GroundstateError,
    HypothesisViolated,
    MalformedInput,
    MonotonicityBroken,
    NoConvergence,
    SignMixed,
    WindowViolation,
)
from .groundstate_space import GroundstateVector, WindowEstimate, decompose, x_norm
from .radial_grid import sphere_area
from .spectral import DiscreteOperator, Factors, SpectrumSummary

WINDOW_RULE_SEMILINEAR = "min(delta0, kappa/(2*c0*K))"
BRACKET_SLACK = 1e-12
ESCAPE_FRACTION = 0.25


@dataclass(frozen=True)
class Nonlinearity:
    """Modulated nonlinearity f(r, u) = phi(r) * profile(r, u).

    kappa and k_upper are the claimed pointwise bounds
    kappa <= profile <= k_upper.  The full certificate theory needs
    kappa > 0; kappa <= 0 is admitted for the one-sided regime (data only
    bounded above), where the MP-side solve still works but the GSP
    certificate is skipped.  strictly_decreasing_ratio asserts that
    u -> profile(r, u)/u is strictly decreasing on u > 0, the hypothesis
    behind the uniqueness diagnostics.
    """

    profile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kappa: float
    k_upper: float
    strictly_decreasing_ratio: bool = True
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (self.kappa <= self.k_upper) or self.k_upper <= 0.0:
            raise MalformedInput("need kappa <= K and K > 0")

    def __call__(self, r: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.profile(r, u), dtype=float)


def constant_profile(g0: float) -> Nonlinearity:
    """g(r, u) = g0, the exactly solvable case u = g0*phi/(Lambda-mu)."""
    if g0 <= 0:
        raise MalformedInput("constant profile needs g0 > 0")
    return Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), g0),
        kappa=g0,
        k_upper=g0,
        strictly_decreasing_ratio=True,
        name=f"constant({g0:g})",
    )


def rational_profile(kappa: float, k_upper: float) -> Nonlinearity:
    """g(r, u) = kappa + (K - kappa)/(1 + u^2)."""
    if not (0.0 < kappa <= k_upper):
        raise MalformedInput("need 0 < kappa <= K")
    return Nonlinearity(
        profile=lambda r, u: kappa + (k_upper - kappa) / (1.0 + np.asarray(u, dtype=float) ** 2),
        kappa=kappa,
        k_upper=k_upper,
        strictly_decreasing_ratio=True,
        name=f"rational({kappa:g},{k_upper:g})",
    )


def exp_decay_profile(kappa: float, k_upper: float, s: float = 1.0) -> Nonlinearity:
    """g(r, u) = kappa + (K - kappa)*exp(-s*|u|)."""
    if not (0.0 < kappa <= k_upper) or s <= 0:
        raise MalformedInput("need 0 < kappa <= K and s > 0")
    return Nonlinearity(
        profile=lambda r, u: kappa
        + (k_upper - kappa) * np.exp(-s * np.abs(np.asarray(u, dtype=float))),
        kappa=kappa,
        k_upper=k_upper,
        strictly_decreasing_ratio=True,
        name=f"exp_decay({kappa:g},{k_upper:g},{s:g})",
    )


def validate_nonlinearity(
    nl: Nonlinearity,
    r: np.ndarray,
    u_lo: float = 1e-3,
    u_hi: float = 1e3,
    n_u: int = 64,
) -> None:
    """Sample-check the box bounds and the decreasing-ratio hypothesis.

    The box kappa <= g <= K is checked on a symmetric u-lattice (log-spaced
    positive values, their negatives, and zero); the ratio g(r, u)/u is
    checked for strict decrease along the positive lattice at every node.
    Raises HypothesisViolated on the first failure.
    """
    if not (0 < u_lo < u_hi) or n_u < 4:
        raise MalformedInput("need 0 < u_lo < u_hi and n_u >= 4")
    r = np.asarray(r, dtype=float)
    upos = np.geomspace(u_lo, u_hi, n_u)
    lattice = np.concatenate([-upos[::-1], [0.0], upos])
    tol = 1e-9 * max(1.0, nl.k_upper)
    for uval in lattice:
        g = nl(r, np.full_like(r, uval))
        if g.min() < nl.kappa - tol or g.max() > nl.k_upper + tol:
            raise HypothesisViolated(
                f"profile leaves [kappa, K] at u = {uval:g}: "
                f"range [{g.min():.6g}, {g.max():.6g}]"
            )
    if nl.strictly_decreasing_ratio:
        prev = None
        for uval in upos:
            ratio = nl(r, np.full_like(r, uval)) / uval
            if prev is not None and np.any(ratio >= prev):
                raise HypothesisViolated(
                    f"g(r, u)/u fails to decrease strictly at u = {uval:g}"
                )
            prev = ratio


@dataclass(frozen=True)
class Bracket:
    """Nodewise order interval [lower, upper] preserved by the iteration."""

    lower: np.ndarray
    upper: np.ndarray
    kind: str  # "MP" or "AMP"


def make_bracket(spectrum: SpectrumSummary, nl: Nonlinearity, mu: float) -> Bracket:
    """Bracket kappa..K times phi/(Lambda - mu), ordered nodewise."""
    lam = spectrum.Lambda
    if mu == lam:
        raise WindowViolation("mu = Lambda has no resolvent")
    phi = spectrum.phi.values
    a = nl.kappa * phi / (lam - mu)
    b = nl.k_upper * phi / (lam - mu)
    if mu < lam:
        return Bracket(lower=a, upper=b, kind="MP")
    return Bracket(lower=b, upper=a, kind="AMP")


def window_semilinear(nl: Nonlinearity, w: WindowEstimate) -> float:
    """Certified half-width min{delta0, kappa/(2*c0*K)} around Lambda.

    With kappa <= 0 the sign-certificate part of the theory is off and
    only the spectral-gap constraint delta0 remains.
    """
    if nl.kappa <= 0.0:
        return w.delta0
    return min(w.delta0, nl.kappa / (2.0 * w.c0 * nl.k_upper))


def apply_T(
    op: DiscreteOperator,
    spectrum: SpectrumSummary,
    nl: Nonlinearity,
    fac: Factors,
    u: np.ndarray,
) -> np.ndarray:
    """One fixed-point map T(u) = (L - mu)^{-1} [phi * g(r, u)].

    fac is ``op.factor(mu)``, which the caller makes once per solve; the
    solve is verified inside solve_shifted: a residual above 1e-10 raises
    SingularResolvent.
    """
    return op.solve_shifted(fac, spectrum.phi.values * nl(op.grid.r, u))


@dataclass(frozen=True)
class UniquenessDiagnostics:
    """Two-start gap and Brezis-Oswald identity value for one solve."""

    two_start_gap: float | None
    brezis_oswald_residual: float | None


@dataclass(frozen=True)
class SemilinearReport:
    """Everything one semilinear solve produced.

    bound_lo/bound_hi are the ratio edges of the bracket, the smaller and
    the larger of kappa/(Lambda-mu) and K/(Lambda-mu).  The branch
    certificate value kappa/(Lambda-mu) is bound_lo on MP (positive) and
    bound_hi on AMP (negative); certified records whether the computed
    ratio u/phi honors it pointwise, and is False when kappa <= 0.
    xnorm_bound is the blow-up envelope K/|Lambda-mu| + 2*c0*K.
    solution_upper is filled by drivers that run a second iteration from
    the opposite bracket end.
    """

    solution: GroundstateVector
    iterations: int
    residual_x: float
    violations: int
    xnorm_bound: float
    xnorm_ok: bool
    branch: str
    mu: float
    window: float
    bound_lo: float
    bound_hi: float
    certified: bool
    min_ratio: float
    max_ratio: float
    uniqueness: UniquenessDiagnostics | None = None
    solution_upper: GroundstateVector | None = None


@dataclass(frozen=True)
class FixedPoint:
    """Limit of clipped_fixed_point: the iterate and its statistics.

    residual_x is the X-norm of u - T(u) at the limit and aux the second
    value the map returned there.  undamped_sweeps counts the sweeps taken
    before the switch to the damped step, secant-mixed or plain (all of
    them if it never came).
    """

    u: np.ndarray
    iterations: int
    residual_x: float
    violations: int
    aux: object
    undamped_sweeps: int


def clipped_fixed_point(
    sweep: Callable[[np.ndarray], tuple[np.ndarray, object]],
    lower: np.ndarray,
    upper: np.ndarray,
    u: np.ndarray,
    phi: np.ndarray,
    escape: type[GroundstateError],
    damping: float,
    max_iter: int,
    tol_x: float,
) -> FixedPoint:
    """Clipped fixed-point iteration, secant-mixed first, on scalar or k-component iterates.

    sweep(u) returns (T(u), aux) for an iterate u of shape (n,) for a
    scalar problem or (k, n) for a k-component system; phi broadcasts
    against it.  Each sweep forms g = clip(T(u), lower, upper) and the
    weighted residual f = (g - u)/phi, whose largest entry is the Picard
    residual ||g - u||_X.  Steps are secant-mixed first (Anderson mixing
    with one stored pair, see _secant_step): with the previous sweep's
    pair (f', g'), u <- clip(g - gamma*(g - g'), lower, upper) for
    gamma = <f - f', f>/||f - f'||^2 over all k*n nodes; the first sweep,
    and a sweep with f = f' or a non-finite gamma, takes the plain step
    u <- g.  At the first sweep whose Picard residual is not below the
    previous sweep's, the pair is dropped and the iteration switches, for
    the rest of the solve, to u <- (1-damping)*u + damping*g.  With
    damping = 1 every step is the plain u <- g (Picard iteration): no
    mixing and no switch.  Image nodes farther than 1e-12 relative slack
    from [lower, upper] are counted as violations, and a sweep with more
    than ESCAPE_FRACTION of all k*n nodes outside raises escape.
    Convergence is an X-norm step below tol_x: the Picard residual before
    the switch, which accepts u <- g, and the damped step after it.
    Failure raises NoConvergence carrying the step trace.  The map is
    applied once more at the limit for residual_x and aux.  The caller's
    sweep holds the factorizations it solves with.
    """
    if not (0.0 < damping <= 1.0):
        raise MalformedInput("damping must lie in (0, 1]")
    slack = BRACKET_SLACK * max(float(np.max(np.abs(lower))), float(np.max(np.abs(upper))))
    violations = 0
    trace: list[float] = []
    undamped = None  # sweeps before the switch to the damped step
    pair = None  # (f, g) of the previous sweep while steps are mixed
    for k in range(1, max_iter + 1):
        t, _ = sweep(u)
        g = np.clip(t, lower, upper)
        out = int(np.count_nonzero(np.abs(t - g) > slack))
        if out > ESCAPE_FRACTION * u.size:
            raise escape(
                f"iterate left the invariant region at {out}/{u.size} nodes on sweep {k}"
            )
        violations += out
        if undamped is None:
            f = (g - u) / phi
            step = float(np.max(np.abs(f)))
            if damping < 1.0 and trace and step >= trace[-1]:
                undamped, pair = k - 1, None
        if undamped is not None:
            g = (1.0 - damping) * u + damping * g
            step = x_norm(g - u, phi)
        trace.append(step)
        if step < tol_x:
            u, f, pair = g, None, None  # the final map application holds only the limit
            t, aux = sweep(u)
            return FixedPoint(
                u=u, iterations=k, residual_x=x_norm(u - t, phi),
                violations=violations, aux=aux,
                undamped_sweeps=k if undamped is None else undamped,
            )
        if undamped is None and damping < 1.0:
            u, pair = _secant_step(f, g, pair, lower, upper), (f, g)
        else:
            u = g
    raise NoConvergence(
        f"no X-norm step below {tol_x:g} within {max_iter} sweeps",
        iterations=max_iter,
        trace=trace,
    )


def _secant_step(f, g, pair, lower, upper) -> np.ndarray:
    """Anderson depth-1 step clip(g - gamma*(g - g'), lower, upper).

    pair is the previous sweep's (f', g'); gamma = <f - f', f>/||f - f'||^2
    minimizes ||f - gamma*(f - f')|| over the flattened residuals.  Without
    a pair, with f = f' or with a non-finite gamma the step is plain g.
    """
    if pair is None:
        return g
    f_prev, g_prev = pair
    df = f - f_prev
    denom = float(np.vdot(df, df))
    gamma = float(np.vdot(df, f)) / denom if denom > 0.0 else math.nan
    if not math.isfinite(gamma):
        return g
    return np.clip(g - gamma * (g - g_prev), lower, upper)


def solve_semilinear(
    op: DiscreteOperator,
    spectrum: SpectrumSummary,
    w: WindowEstimate,
    nl: Nonlinearity,
    mu: float,
    start: str = "lower",
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
) -> SemilinearReport:
    """Clipped fixed-point iteration of T inside the bracket.

    Factors T - mu once and runs clipped_fixed_point on the scalar iterate
    from the requested bracket end, every sweep solving with those factors:
    steps are secant-mixed until the Picard residual stops falling, then
    damped by damping for the rest of the solve; damping = 1 takes plain
    Picard steps throughout.  Clipped nodes count as bracket violations, a
    sweep clipping more than ESCAPE_FRACTION of the nodes raises
    BracketEscape, and failure to converge in the X-norm raises
    NoConvergence carrying the step-size trace.
    """
    window = window_semilinear(nl, w)
    lam = spectrum.Lambda
    if not (0.0 < abs(lam - mu) < window):
        raise WindowViolation(
            f"|Lambda - mu| = {abs(lam - mu):.6g} outside the certified window {window:.6g}"
        )
    if nl.kappa <= 0.0 and mu > lam:
        raise WindowViolation("the mu > Lambda branch needs kappa > 0")
    bracket = make_bracket(spectrum, nl, mu)
    if start not in ("lower", "upper"):
        raise MalformedInput("start must be 'lower' or 'upper'")
    u = bracket.lower if start == "lower" else bracket.upper
    fac = op.factor(mu)
    fp = clipped_fixed_point(
        lambda v: (apply_T(op, spectrum, nl, fac, v), None),
        bracket.lower, bracket.upper, u, spectrum.phi.values,
        BracketEscape, damping, max_iter, tol_x,
    )
    return _finish_report(
        op, spectrum, w, nl, mu, fp.u,
        iterations=fp.iterations,
        residual_x=fp.residual_x,
        violations=fp.violations,
        branch=bracket.kind,
        window=window,
    )


def _finish_report(
    op: DiscreteOperator,
    spectrum: SpectrumSummary,
    w: WindowEstimate,
    nl: Nonlinearity,
    mu: float,
    u: np.ndarray,
    iterations: int,
    residual_x: float,
    violations: int,
    branch: str,
    window: float,
) -> SemilinearReport:
    """Pointwise certificate verification shared by the two solvers."""
    phi = spectrum.phi.values
    lam = spectrum.Lambda
    ratio = u / phi
    min_ratio, max_ratio = float(ratio.min()), float(ratio.max())
    edge_kappa = nl.kappa / (lam - mu)
    edge_k = nl.k_upper / (lam - mu)
    bound_lo, bound_hi = min(edge_kappa, edge_k), max(edge_kappa, edge_k)
    if nl.kappa <= 0.0:
        # One-sided data: no sign certificate is claimed.
        certified = False
    elif branch == "MP":
        certified = min_ratio >= bound_lo * (1.0 - 1e-6)
    else:
        certified = max_ratio <= bound_hi * (1.0 - 1e-6)
    xnorm_bound = nl.k_upper / abs(lam - mu) + 2.0 * w.c0 * nl.k_upper
    sol = decompose(u, phi, op.grid.quad_weights)
    return SemilinearReport(
        solution=sol,
        iterations=iterations,
        residual_x=residual_x,
        violations=violations,
        xnorm_bound=xnorm_bound,
        xnorm_ok=sol.x_norm <= xnorm_bound,
        branch=branch,
        mu=mu,
        window=window,
        bound_lo=bound_lo,
        bound_hi=bound_hi,
        certified=certified,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
    )


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
    op: DiscreteOperator,
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
    sweeps share one factorization of T - mu + M; the residual check of
    the lower limit uses one of T - mu.
    """
    lam = spectrum.Lambda
    if mu >= lam:
        raise WindowViolation("monotone scheme needs mu < Lambda")
    phi = spectrum.phi.values
    r = op.grid.r
    bracket = make_bracket(spectrum, nl, mu)
    m_shift = 1.5 * _lipschitz_estimate(nl, r, phi, bracket) if shift is None else float(shift)
    if m_shift < 0:
        raise MalformedInput("shift must be >= 0")

    shifted = op.factor(mu - m_shift)

    def sweep(u: np.ndarray) -> np.ndarray:
        return op.solve_shifted(shifted, phi * nl(r, u) + m_shift * u)

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
    residual_x = x_norm(lower_limit - apply_T(op, spectrum, nl, op.factor(mu), lower_limit), phi)
    gap = x_norm(upper_limit - lower_limit, phi)
    report = _finish_report(
        op, spectrum, w, nl, mu, lower_limit,
        iterations=total_iters,
        residual_x=residual_x,
        violations=0,
        branch="MP",
        window=window_semilinear(nl, w),
    )
    return replace(
        report,
        uniqueness=UniquenessDiagnostics(two_start_gap=gap, brezis_oswald_residual=None),
        solution_upper=decompose(upper_limit, phi, op.grid.quad_weights),
    )


def _ratio_form(wq, fa, a, fb, b) -> float:
    """quadrature((fa/a - fb/b)(a^2 - b^2)) with weights wq; fa, fb are images of a, b."""
    return float(np.dot(wq, (fa / a - fb / b) * (a**2 - b**2)))


def _ratio_forms(op: DiscreteOperator, pairs: Iterable, sign_message: str) -> tuple[list, list]:
    """Pairs (a, b) made positive, and quadrature((La/a - Lb/b)(a^2 - b^2)) per pair.

    All functions must share one strict sign on the operator's nodes (an
    all-negative set is flipped), else SignMixed(sign_message) is raised.
    """
    s = op.start
    pairs = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in pairs]
    if not all(np.all(x[s:] > 0) for pair in pairs for x in pair):
        if not all(np.all(x[s:] < 0) for pair in pairs for x in pair):
            raise SignMixed(sign_message)
        pairs = [(-a, -b) for a, b in pairs]
    wq = op.grid.quad_weights[s:]
    forms = []
    for a, b in pairs:
        la, lb, a_s, b_s = op.matvec(a)[s:], op.matvec(b)[s:], a[s:], b[s:]
        forms.append(_ratio_form(wq, la, a_s, lb, b_s))
    return pairs, forms


def brezis_oswald_check(
    op: DiscreteOperator, u: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """Discrete Brezis-Oswald quadratic form and its identity gap.

    For one-signed u, v (both positive, or both negative -- then absolute
    values are used) the form

        T = quadrature((Lu/u - Lv/v) * (u^2 - v^2))

    equals the edge-midpoint quadrature of
    v_mid^2*((u/v)')^2 + u_mid^2*((v/u)')^2 over interior edges, which is
    nonnegative and vanishes iff u/v is constant.  Returns (T, T - rhs);
    the gap shrinks at second order under grid refinement and certifies
    that T's sign is structural, not a quadrature artifact.  Mixed signs
    raise SignMixed.
    """
    ((u, v),), (t_lhs,) = _ratio_forms(
        op, [(u, v)], "u and v must both be strictly one-signed, same sign"
    )
    s = op.start
    us, vs = u[s:], v[s:]
    grid = op.grid
    r = grid.r[s:]
    h = grid.h
    area = sphere_area(grid.space_dim)
    r_mid = 0.5 * (r[:-1] + r[1:])
    w_mid = area * r_mid ** (grid.space_dim - 1) * h
    u_mid = 0.5 * (us[:-1] + us[1:])
    v_mid = 0.5 * (vs[:-1] + vs[1:])
    duv = np.diff(us / vs) / h
    dvu = np.diff(vs / us) / h
    rhs = float(np.dot(w_mid, v_mid**2 * duv**2 + u_mid**2 * dvu**2))
    return t_lhs, t_lhs - rhs


def two_start_diagnostics(
    op: DiscreteOperator,
    spectrum: SpectrumSummary,
    w: WindowEstimate,
    nl: Nonlinearity,
    mu: float,
    damping: float = 0.5,
    max_iter: int = 500,
    tol_x: float = 1e-9,
) -> SemilinearReport:
    """Solve from both bracket ends and attach uniqueness diagnostics.

    two_start_gap is the X-distance between the two limits;
    brezis_oswald_residual is the identity gap of the discrete form on
    the pair (a genuine uniqueness indicator only when the decreasing-
    ratio hypothesis holds, which is recorded on the nonlinearity).
    """
    lo = solve_semilinear(
        op, spectrum, w, nl, mu, start="lower",
        damping=damping, max_iter=max_iter, tol_x=tol_x,
    )
    hi = solve_semilinear(
        op, spectrum, w, nl, mu, start="upper",
        damping=damping, max_iter=max_iter, tol_x=tol_x,
    )
    gap = x_norm(hi.solution.values - lo.solution.values, spectrum.phi.values)
    t_lhs, _ = brezis_oswald_check(op, lo.solution.values, hi.solution.values)
    diag = UniquenessDiagnostics(two_start_gap=gap, brezis_oswald_residual=t_lhs)
    return replace(lo, uniqueness=diag, solution_upper=hi.solution)
