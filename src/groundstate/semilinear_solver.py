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
(exit 3 from the command line).  A fixed point of T inside the bracket
has the bracket's sign: u >= kappa*phi/(Lambda-mu) on the MP branch
(groundstate positivity, blowing up like 1/(Lambda-mu)) and
u <= kappa*phi/(Lambda-mu) < 0 on the AMP branch.  The iteration
(clipped_fixed_point) takes one Picard sweep, then clipped Newton steps
on the exact tridiagonal Jacobian L - mu - diag(phi g_u) until their
rate predicts convergence, then one plain sweep (damped sweeps instead
once a step stops falling, or once a Newton step is above
NEWTON_CONTRACTION of the step two before it); every sweep and Newton
step is one fresh tridiagonal elimination, and no step holds a
factorization.  Its iterates lie in the bracket by clipping,
so the limit's own ratio proves nothing.  The certificate is
checked on the image T(u) of the limit instead: a row is certified when
kappa > 0 and T(u) leaves the bracket at no node by more than CERT_SLACK
of the larger edge there (outside_count).  A limit of clip(T) that is not
a fixed point of T fails that check.

A discrete Brezis-Oswald identity gives a uniqueness diagnostic: for two
positive candidates the quadratic form
quadrature((Lu/u - Lv/v)(u^2 - v^2)) agrees, to second order in the grid
step, with a manifestly nonnegative gradient-ratio quadrature, so its
value (and the gap between the two iteration limits) measures how far
the pair is from coinciding.  The classical monotone iteration from the
bracket endpoints, an independent cross-check of these solves, lives
with the tests (tests/reference_oracles.py), as do those identities
(tests/brezis_oswald_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import (
    BracketEscape,
    HypothesisViolated,
    MalformedInput,
    NoConvergence,
    SignMixed,
    WindowViolation,
)
from .groundstate_space import (
    CERT_SLACK,
    GroundstateVector,
    WindowEstimate,
    decompose,
    x_distance,
)
from .spectral import DiscreteOperator, SpectrumSummary

WINDOW_RULE_SEMILINEAR = "min(delta0, kappa/(2*c0*K))"
BRACKET_SLACK = 1e-12
ESCAPE_FRACTION = 0.25
#: a Newton step is accepted only when it falls below the previous step and
#: is at most this fraction of the step before that: two steps that do not
#: halve the step hand over to damped sweeps (a lone first Newton step,
#: which may still be far from the quadratic regime, only has to fall)
NEWTON_CONTRACTION = 0.5
SLOPE_RTOL = 0.1  # slack of the derivative check, relative to the larger |g_u| of an interval
SLOPE_EVERY = 8  # the derivative check takes one lattice interval in every SLOPE_EVERY


@dataclass(frozen=True)
class Nonlinearity:
    """Modulated nonlinearity f(r, u) = phi(r) * profile(r, u).

    kappa and k_upper are the claimed pointwise bounds
    kappa <= profile <= k_upper.  The full certificate theory needs
    kappa > 0; kappa <= 0 is admitted for the one-sided regime (data only
    bounded above), where the MP-side solve still works but the GSP
    certificate is skipped.  derivative(r, u) is the u-derivative g_u of
    profile, with which solve_semilinear and solve_system take their
    Newton steps.  The uniqueness diagnostics assume that
    u -> profile(r, u)/u is strictly decreasing on u > 0, which
    validate_nonlinearity checks on a sample lattice for every profile
    a run uses.
    """

    profile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kappa: float
    k_upper: float
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]

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
        derivative=lambda r, u: np.zeros_like(np.asarray(u, dtype=float)),
    )


def rational_profile(kappa: float, k_upper: float) -> Nonlinearity:
    """g(r, u) = kappa + (K - kappa)/(1 + u^2), g_u = -2 (K - kappa) u/(1 + u^2)^2."""
    if not (0.0 < kappa <= k_upper):
        raise MalformedInput("need 0 < kappa <= K")
    return Nonlinearity(
        profile=lambda r, u: kappa + (k_upper - kappa) / (1.0 + np.asarray(u, dtype=float) ** 2),
        kappa=kappa,
        k_upper=k_upper,
        derivative=lambda r, u: (-2.0 * (k_upper - kappa)) * np.asarray(u, dtype=float)
        / (1.0 + np.asarray(u, dtype=float) ** 2) ** 2,
    )


def exp_decay_profile(kappa: float, k_upper: float, s: float = 1.0) -> Nonlinearity:
    """g(r, u) = kappa + (K - kappa)*exp(-s*|u|), g_u = -s (K - kappa) sign(u) exp(-s*|u|).

    g has a kink at u = 0, where g_u reads 0; no bracket reaches it.
    """
    if not (0.0 < kappa <= k_upper) or s <= 0:
        raise MalformedInput("need 0 < kappa <= K and s > 0")
    return Nonlinearity(
        profile=lambda r, u: kappa
        + (k_upper - kappa) * np.exp(-s * np.abs(np.asarray(u, dtype=float))),
        kappa=kappa,
        k_upper=k_upper,
        derivative=lambda r, u: (-s * (k_upper - kappa)) * np.sign(u)
        * np.exp(-s * np.abs(np.asarray(u, dtype=float))),
    )


def validate_nonlinearity(nl: Nonlinearity, r: np.ndarray) -> None:
    """Sample-check the box bounds, the decreasing-ratio hypothesis and g_u.

    The box kappa <= g <= K is checked on a symmetric u-lattice (64
    log-spaced values from 1e-3 to 1e3, their negatives, and zero); the
    ratio g(r, u)/u is checked for strict decrease along the positive
    lattice at every node.  For g_u, one interval [a, b] of
    neighbouring lattice points in every SLOPE_EVERY (8 positive and 7
    negative ones, one every ~0.76 decade of |u|; none ends at u = 0,
    exp_decay's kink) must have its difference quotient
    (g(b) - g(a))/(b - a), which g_u takes somewhere in between, inside
    the range of g_u(a) and g_u(b) widened by SLOPE_RTOL of the larger
    |g_u| there: a g_u of the wrong sign fails wherever it is not
    negligible, and one off by a factor of 2 wherever it also changes
    little across an interval.  One pass evaluates g once per lattice
    point, and g_u at the two ends of each checked interval.  Raises HypothesisViolated on the first box
    failure, else on the first ratio failure, else on the first
    derivative failure.
    """
    r = np.asarray(r, dtype=float)
    upos = np.geomspace(1e-3, 1e3, 64)
    lattice = np.concatenate([-upos[::-1], [0.0], upos])
    tol = 1e-9 * max(1.0, nl.k_upper)
    prev = None
    ratio_fails_at = None
    slope_fails_at = None
    last = None  # (u, g, g_u) at the previous lattice point
    for j, uval in enumerate(lattice):
        u = np.full_like(r, uval)
        g = nl(r, u)
        if g.min() < nl.kappa - tol or g.max() > nl.k_upper + tol:
            raise HypothesisViolated(
                f"profile leaves [kappa, K] at u = {uval:g}: "
                f"range [{g.min():.6g}, {g.max():.6g}]"
            )
        if uval > 0 and ratio_fails_at is None:
            ratio = g / uval
            if prev is not None and np.any(ratio >= prev):
                ratio_fails_at = uval
            prev = ratio
        phase = j % SLOPE_EVERY  # a checked interval runs from phase SLOPE_EVERY - 1 to 0
        if slope_fails_at is not None or 0 < phase < SLOPE_EVERY - 1:
            continue
        gu = np.asarray(nl.derivative(r, u), dtype=float)
        if phase == 0 and last is not None and last[0] * uval > 0.0:
            u0, g0, gu0 = last
            dq = (g - g0) / (uval - u0)
            lo, hi = np.minimum(gu0, gu), np.maximum(gu0, gu)
            slack = SLOPE_RTOL * np.maximum(hi, -lo) + tol / (uval - u0)
            if ((dq < lo - slack) | (dq > hi + slack)).any():
                slope_fails_at = (u0, uval)
        last = (uval, g, gu)
    if ratio_fails_at is not None:
        raise HypothesisViolated(f"g(r, u)/u fails to decrease strictly at u = {ratio_fails_at:g}")
    if slope_fails_at is not None:
        raise HypothesisViolated(
            "g_u disagrees with the difference quotient of g between u = "
            f"{slope_fails_at[0]:g} and u = {slope_fails_at[1]:g}"
        )


@dataclass(frozen=True)
class Bracket:
    """Order interval [lower, upper] of groundstate multiples that a solve iterates in.

    lower and upper have the iterate's shape: (n,) for a scalar solve
    (make_bracket), (2, n) for a 2x2 system (coop_system.rectangle), row i
    the edges of component i.  bound_lo and bound_hi are the smallest and
    the largest edge ratio lower/phi and upper/phi over all components;
    inside the window both have the branch sign, and the set's sign is the
    claim.  kind is "MP" or "AMP".
    """

    lower: np.ndarray
    upper: np.ndarray
    bound_lo: float
    bound_hi: float
    kind: str

    def end(self, start: str) -> np.ndarray:
        """The end a solve starts from: lower for "lower", upper for "upper"."""
        if start not in ("lower", "upper"):
            raise MalformedInput("start must be 'lower' or 'upper'")
        return self.lower if start == "lower" else self.upper


def make_bracket(spectrum: SpectrumSummary, nl: Nonlinearity, mu: float) -> Bracket:
    """Bracket kappa..K times phi/(Lambda - mu), ordered nodewise, with its ratio edges."""
    lam = spectrum.Lambda
    if mu == lam:
        raise WindowViolation("mu = Lambda has no resolvent")
    phi = spectrum.phi
    a = nl.kappa * phi / (lam - mu)
    b = nl.k_upper * phi / (lam - mu)
    edge_kappa = nl.kappa / (lam - mu)
    edge_k = nl.k_upper / (lam - mu)
    if mu < lam:
        return Bracket(lower=a, upper=b, bound_lo=edge_kappa, bound_hi=edge_k, kind="MP")
    return Bracket(lower=b, upper=a, bound_lo=edge_k, bound_hi=edge_kappa, kind="AMP")


def window_semilinear(nl: Nonlinearity, w: WindowEstimate) -> float:
    """Certified half-width min{delta0, kappa/(2*c0*K)} around Lambda.

    With kappa <= 0 the sign-certificate part of the theory is off and
    only the spectral-gap constraint delta0 remains.
    """
    if nl.kappa <= 0.0:
        return w.delta0
    return min(w.delta0, nl.kappa / (2.0 * w.c0 * nl.k_upper))


def apply_T(
    spectrum: SpectrumSummary, nl: Nonlinearity, mu: float, u: np.ndarray
) -> np.ndarray:
    """One fixed-point map T(u) = (L - mu)^{-1} [phi * g(r, u)], L = spectrum.op.

    The solve is verified inside solve_shifted: a residual above 1e-10
    raises SingularResolvent.
    """
    op = spectrum.op
    return op.solve_shifted(mu, spectrum.phi * nl(op.grid.r, u))


@dataclass(frozen=True)
class UniquenessDiagnostics:
    """Uniqueness diagnostics of one two-start solve.

    two_start_gap is the X-distance between the limits from the two ends;
    brezis_oswald_residual is the Brezis-Oswald form of the two limits
    (brezis_oswald_check, or coop_system.coupled_uniqueness_check's T1 for
    a system), not an identity gap, and None when it is not evaluated.
    """

    two_start_gap: float | None
    brezis_oswald_residual: float | None


@dataclass(frozen=True)
class SemilinearReport:
    """Everything one semilinear solve produced.

    bound_lo/bound_hi are the bracket's ratio edges (Bracket.bound_lo and
    bound_hi), the smaller and the larger of kappa/(Lambda-mu) and
    K/(Lambda-mu).  The branch certificate value kappa/(Lambda-mu) is
    bound_lo on MP (positive) and bound_hi on AMP (negative).  certified
    records that kappa > 0 and that the image T(u) of the solution leaves
    the bracket at no node (outside_count), so the certificate holds for
    T(u) = u, not only for the clipped iterate; it is False when kappa <= 0.
    xnorm_bound is the blow-up envelope K/|Lambda-mu| + 2*c0*K.
    solution_upper is filled by drivers that run a second iteration from
    the opposite bracket end.
    """

    solution: GroundstateVector
    iterations: int
    residual_x: float
    violations: int
    xnorm_bound: float
    branch: str
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

    iterations counts the steps taken: verified sweeps and accepted Newton
    steps.  residual_x is the X-norm of u - T(u) at the limit and aux the
    second value the map returned there.  outside_at_limit is
    outside_count of that image T(u): the nodes where it leaves
    [lower, upper] beyond the certificate slack, 0 when the limit of
    clip(T) is a fixed point of T in the set.  undamped_sweeps counts the
    steps taken before the switch to the damped step, plain or Newton
    (all of them if it never came).
    """

    u: np.ndarray
    iterations: int
    residual_x: float
    violations: int
    aux: object
    undamped_sweeps: int
    outside_at_limit: int


def outside_count(
    t: np.ndarray, lower: np.ndarray, upper: np.ndarray, floor: float = 0.0
) -> int:
    """Nodes where t leaves [lower, upper] by more than CERT_SLACK of the larger edge there.

    The test |t - clip(t)| > CERT_SLACK*max(|lower|, |upper|) is the
    relative ratio-space slack of the pointwise certificates; it also
    admits the rounding of a zero-width set's image.  A node must also
    lie farther than floor from the set.  lower and upper have t's shape:
    the slack and the distance are each formed in place in one buffer
    of it, by the ufuncs of the one-expression form in its order.
    """
    slack = np.abs(lower)
    dist = np.abs(upper)
    np.maximum(slack, dist, out=slack)
    slack *= CERT_SLACK
    np.maximum(floor, slack, out=slack)
    np.maximum(t, lower, out=dist)
    np.minimum(dist, upper, out=dist)
    np.subtract(t, dist, out=dist)
    np.abs(dist, out=dist)
    return int(np.count_nonzero(dist > slack))


def clipped_fixed_point(
    sweep: Callable[[np.ndarray], tuple[np.ndarray, object]],
    newton: Callable[[np.ndarray], np.ndarray | None],
    bracket: Bracket,
    u: np.ndarray,
    phi: np.ndarray,
    damping: float,
    max_iter: int,
    tol_x: float,
) -> FixedPoint:
    """Clipped fixed-point iteration, Newton steps first, on scalar or k-component u.

    sweep(u) returns (T(u), aux) for an iterate u of shape (n,) for a
    scalar problem or (k, n) for a k-component system; phi broadcasts
    against it, and the bracket's lower and upper have u's shape.
    newton(u) returns an unclipped Newton iterate at u of u's shape, or
    None.  Each sweep forms g = clip(T(u), lower, upper),
    whose Picard residual is the X-norm step ||g - u||_X.  Sweep 1 takes
    the plain step u <- g.  With damping = 1 every step is a plain sweep
    u <- g (Picard iteration): no Newton step and no switch.  Otherwise
    the steps after sweep 1 are Newton steps u <- clip(newton(u), lower,
    upper), with no sweep, until the first step (or a None) whose X-norm
    step is not below the previous step's, or is above NEWTON_CONTRACTION
    times the step before that: Newton steps that stagnate are refused.
    That step is replaced by a damped sweep u <- (1-damping)*u +
    damping*g, and so is every step for the rest of the solve.  When the
    rate step/previous puts the next Newton step below tol_x
    (step**2/previous < tol_x), one plain sweep follows: it accepts
    u <- g when its Picard residual is below tol_x, else hands back to
    Newton steps if that residual fell, else switches to the damped
    sweeps.

    An image node is counted as a violation when it lies farther from
    [lower, upper] than both BRACKET_SLACK of the set's largest edge and
    CERT_SLACK of its own larger edge (outside_count; the second admits
    the rounding of a zero-width set's image), and a sweep with more than
    ESCAPE_FRACTION of all k*n nodes outside raises BracketEscape.
    Convergence is an X-norm step below tol_x on a sweep: the Picard
    residual before the switch, which accepts u <- g, and the damped step
    after it.  Failure raises NoConvergence carrying the step trace
    (sweeps and Newton steps).  The map is applied once more at the limit
    for residual_x, aux and outside_at_limit, so these come only from
    sweep, never from a Newton solve.

    A step holds only what the next step reads: a sweep drops its aux at
    once and T(u) after the escape check, so u and g are what stay; each
    X-norm step is one temporary (x_distance) and the damped step scales g
    in place.  The arithmetic is that of the one-expression forms, bit
    for bit.
    """
    if not (0.0 < damping <= 1.0):
        raise MalformedInput("damping must lie in (0, 1]")
    lower, upper = bracket.lower, bracket.upper
    slack = BRACKET_SLACK * max(float(np.abs(lower).max()), float(np.abs(upper).max()))
    violations = sweeps = 0
    trace: list[float] = []
    undamped = None  # steps before the switch to the damped step
    newton_next = False  # the next step is a Newton step
    closing = False  # the Newton steps before this sweep predict convergence
    for k in range(1, max_iter + 1):
        if newton_next:
            v = newton(u)
            if v is not None:
                np.minimum(v, upper, out=v)
                np.maximum(v, lower, out=v)
                step = x_distance(v, u, phi)
                if step < trace[-1] and (
                    len(trace) < 2 or step <= NEWTON_CONTRACTION * trace[-2]
                ):
                    # at the rate step/previous the next step is step**2/previous
                    closing = step * step < tol_x * trace[-1]
                    trace.append(step)
                    u, newton_next = v, not closing
                    continue
            v, newton_next, undamped = None, False, k - 1
        t = sweep(u)[0]  # a step holds no sweep's aux
        sweeps += 1
        g = np.minimum(t, upper)
        np.maximum(g, lower, out=g)
        d = np.subtract(t, g)
        np.abs(d, out=d)
        out = int(np.count_nonzero(d > slack))
        d = None
        if out:  # a zero-width set's image lies outside it by its rounding
            out = outside_count(t, lower, upper, floor=slack)
        t = None  # the rest of the step holds only u and g
        if out > ESCAPE_FRACTION * u.size:
            raise BracketEscape(
                f"iterate left the invariant region at {out}/{u.size} nodes on sweep {sweeps}"
            )
        violations += out
        if undamped is None:
            step = x_distance(g, u, phi)
            if damping < 1.0 and trace and step >= trace[-1] and not (closing and step < tol_x):
                undamped = k - 1
            closing = False
        if undamped is not None:
            g *= damping
            g += (1.0 - damping) * u
            step = x_distance(g, u, phi)
        trace.append(step)
        if step < tol_x:
            u = g
            t, aux = sweep(u)
            return FixedPoint(
                u=u, iterations=k, residual_x=x_distance(u, t, phi),
                violations=violations, aux=aux,
                undamped_sweeps=k if undamped is None else undamped,
                outside_at_limit=outside_count(t, lower, upper),
            )
        u, newton_next = g, undamped is None and damping < 1.0
    raise NoConvergence(
        f"no X-norm step below {tol_x:g} within {max_iter} steps",
        iterations=max_iter,
        trace=trace,
    )


def _scalar_newton(
    spectrum: SpectrumSummary, nl: Nonlinearity, mu: float, u: np.ndarray
) -> np.ndarray | None:
    """u - J^{-1}((L - mu) u - phi g) = J^{-1}(phi (g - g_u u)), J = L - mu - diag(phi g_u).

    The right-hand form needs no product with L; like a sweep, it is one
    tridiagonal elimination of the whole iterate, here unverified.
    """
    phi, r = spectrum.phi, spectrum.op.grid.r
    slope = phi * nl.derivative(r, u)
    rhs = phi * nl(r, u)
    rhs -= slope * u
    return spectrum.op.solve_unverified(mu, slope, rhs)


def solve_semilinear(
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

    Runs clipped_fixed_point on the scalar iterate from the requested
    bracket end.  Sweep 1 is a verified Picard sweep; then clipped Newton
    steps on the tridiagonal Jacobian L - mu - diag(phi g_u) run until
    their rate predicts convergence, and one plain verified sweep and the
    verified image of the limit close the solve.  A step whose X-norm
    step does not fall, or Newton steps that do not halve it (see
    clipped_fixed_point), switch to sweeps damped by damping for the rest
    of the solve; damping = 1 takes plain Picard steps throughout.  Every
    solve is one fresh elimination, so no step holds a factorization.
    Clipped nodes count as bracket violations, a sweep clipping more than
    ESCAPE_FRACTION of the nodes raises BracketEscape, and failure to
    converge in the X-norm raises NoConvergence carrying the step-size
    trace.
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
    fp = clipped_fixed_point(
        lambda u: (apply_T(spectrum, nl, mu, u), None),
        lambda u: _scalar_newton(spectrum, nl, mu, u),
        bracket, bracket.end(start), spectrum.phi, damping, max_iter, tol_x,
    )
    return _finish_report(
        spectrum, w, nl, mu, fp.u, bracket,
        iterations=fp.iterations,
        residual_x=fp.residual_x,
        violations=fp.violations,
        outside=fp.outside_at_limit,
    )


def _finish_report(
    spectrum: SpectrumSummary,
    w: WindowEstimate,
    nl: Nonlinearity,
    mu: float,
    u: np.ndarray,
    bracket: Bracket,
    iterations: int,
    residual_x: float,
    violations: int,
    outside: int,
) -> SemilinearReport:
    """Report of a limit u whose image T(u) leaves the bracket at outside nodes.

    One-sided data (kappa <= 0) claim no sign certificate.
    """
    phi = spectrum.phi
    ratio = u / phi
    min_ratio, max_ratio = float(ratio.min()), float(ratio.max())
    xnorm_bound = nl.k_upper / abs(spectrum.Lambda - mu) + 2.0 * w.c0 * nl.k_upper
    return SemilinearReport(
        solution=decompose(u, phi, spectrum.op.grid.quad_weights),
        iterations=iterations,
        residual_x=residual_x,
        violations=violations,
        xnorm_bound=xnorm_bound,
        branch=bracket.kind,
        bound_lo=bracket.bound_lo,
        bound_hi=bracket.bound_hi,
        certified=nl.kappa > 0.0 and outside == 0,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
    )


def _ratio_forms(op: DiscreteOperator, pairs: Iterable, sign_message: str) -> list[float]:
    """quadrature((La/a - Lb/b)(a^2 - b^2)) per pair (a, b) of grid functions.

    All functions must share one strict sign on the grid, else
    SignMixed(sign_message) is raised; the form of (-a, -b) is that of
    (a, b), bit for bit.
    """
    pairs = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in pairs]
    if not all(np.all(x > 0) for pair in pairs for x in pair):
        if not all(np.all(x < 0) for pair in pairs for x in pair):
            raise SignMixed(sign_message)
    wq = op.grid.quad_weights
    forms = []
    for a, b in pairs:
        la, lb = op.matvec(a), op.matvec(b)
        forms.append(float(np.dot(wq, (la / a - lb / b) * (a**2 - b**2))))
    return forms


def brezis_oswald_check(op: DiscreteOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete Brezis-Oswald quadratic form of two one-signed functions.

    For u, v both strictly positive or both strictly negative on the
    grid, returns

        T = quadrature((Lu/u - Lv/v) * (u^2 - v^2)).

    T agrees, to second order in the grid step, with a quadrature of
    v^2*((u/v)')^2 + u^2*((v/u)')^2, which is nonnegative and vanishes iff
    u/v is constant.  Mixed signs raise SignMixed.
    """
    (form,) = _ratio_forms(op, [(u, v)], "u and v must both be strictly one-signed, same sign")
    return form


def two_start_diagnostics(
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
    brezis_oswald_residual is the Brezis-Oswald form T of the pair
    (brezis_oswald_check), which is near 0 when the limits coincide (a
    uniqueness indicator only when the decreasing-ratio hypothesis holds,
    which validate_nonlinearity checks on a sample lattice).
    """
    lo = solve_semilinear(
        spectrum, w, nl, mu, start="lower",
        damping=damping, max_iter=max_iter, tol_x=tol_x,
    )
    hi = solve_semilinear(
        spectrum, w, nl, mu, start="upper",
        damping=damping, max_iter=max_iter, tol_x=tol_x,
    )
    gap = x_distance(hi.solution.values, lo.solution.values, spectrum.phi)
    form = brezis_oswald_check(spectrum.op, lo.solution.values, hi.solution.values)
    diag = UniquenessDiagnostics(two_start_gap=gap, brezis_oswald_residual=form)
    return replace(lo, uniqueness=diag, solution_upper=hi.solution)
