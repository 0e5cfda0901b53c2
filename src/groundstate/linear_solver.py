"""Linear solves (L - mu)u = f with groundstate sign certificates.

Near Lambda the solution splits exactly: the phi component obeys
u1 = f1/(Lambda - mu) while the orthogonal part stays bounded by
c0*||fperp||_X.  When mu sits inside the f-dependent window
min{delta0, delta1(f)} with delta1(f) = f1/(c0*||fperp||_X), those two
facts pin the sign of u/phi: positive below Lambda (GSP), negative above
(GSN).  Certificates here are verified pointwise on the grid, never
trusted from the constants alone, because c0 is a sampled estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, SingularResolvent
from .groundstate_space import GroundstateVector, WindowEstimate, decompose, x_norm
from .spectral import DiscreteOperator, SpectrumSummary

CERT_SLACK = 1e-6


@dataclass(frozen=True)
class LinearProblem:
    """Data (L, mu, f) for one resolvent solve, f carried with its split."""

    op: DiscreteOperator
    spectrum: SpectrumSummary
    mu: float
    f: GroundstateVector

    @property
    def hstar_f(self) -> bool:
        """Whether the sign-certificate hypothesis f1 > 0 holds."""
        return self.f.c1 > 0.0


def linear_problem(
    op: DiscreteOperator, spectrum: SpectrumSummary, mu: float, f_values: np.ndarray
) -> LinearProblem:
    """Validate mu against the computed spectrum and decompose f."""
    spectrum.check_off_spectrum(mu)
    f = decompose(f_values, spectrum.phi.values, op.grid.quad_weights)
    return LinearProblem(op=op, spectrum=spectrum, mu=mu, f=f)


def solve_linear(p: LinearProblem) -> GroundstateVector:
    """Verified banded solve of (L - mu)u = f plus a component check.

    The residual is checked inside solve_shifted; here the computed u1
    must also match f1/(Lambda - mu) to 1e-6 relative (the discrete
    identity is exact up to rounding since phi is an exact eigenvector of
    the matrix).
    """
    try:
        u = p.op.solve_shifted(p.mu, p.f.values)
    finally:
        p.op.drop_factors()
    ug = decompose(u, p.spectrum.phi.values, p.op.grid.quad_weights)
    expected = p.f.c1 / (p.spectrum.Lambda - p.mu)
    if abs(ug.c1 - expected) > 1e-6 * max(abs(expected), 1e-300):
        raise SingularResolvent("groundstate component identity u1 = f1/(Lambda-mu) violated")
    return ug


@dataclass(frozen=True)
class LinearCertificate:
    """Solve outcome plus the sign certificate when one was earned.

    bound is the certificate value f1/(Lambda-mu) -/+ c0*||fperp||_X
    whenever mu is in the window; gsp/gsn repeat it only once the solution
    has been verified against it pointwise (None otherwise).
    min_ratio/max_ratio are the raw sign statistics, always present so
    out-of-window sweeps still produce curves.
    """

    solution: GroundstateVector
    gsp: float | None
    gsn: float | None
    delta_f: float
    window_used: float
    mu: float
    in_window: bool
    bound: float | None
    certified: bool
    min_ratio: float
    max_ratio: float


def certify_theorem1(p: LinearProblem, w: WindowEstimate) -> LinearCertificate:
    """Solve and, inside the window, verify the sign bounds pointwise.

    Below Lambda the claim is min(u/phi) >= f1/(Lambda-mu) - c0*||fperp||_X
    with a positive right side; above Lambda it is
    max(u/phi) <= f1/(Lambda-mu) + c0*||fperp||_X with a negative right
    side.  Outside min{delta0, delta1(f)} only the raw solution and its
    sign statistics are reported.
    """
    if p.f.c1 <= 0.0:
        raise HypothesisViolated("sign certificates need f1 = quadrature(f*phi) > 0")
    fx = x_norm(p.f.values, p.spectrum.phi.values)
    if not math.isfinite(fx):
        raise HypothesisViolated("f has no finite groundstate-weighted norm")

    perp_x = x_norm(p.f.perp, p.spectrum.phi.values) if np.any(p.f.perp) else 0.0
    delta_f = math.inf if perp_x == 0.0 else p.f.c1 / (w.c0 * perp_x)
    window = min(w.delta0, delta_f)

    u = solve_linear(p)
    ratio = u.values / p.spectrum.phi.values
    min_ratio, max_ratio = float(ratio.min()), float(ratio.max())

    lam = p.spectrum.Lambda
    in_window = 0.0 < abs(lam - p.mu) < window
    gsp = gsn = bound = None
    certified = False
    if in_window:
        # pointwise checks carry 1e-6 relative slack: when f is parallel
        # to phi the bound is attained exactly and only rounding separates
        # the computed ratio from it
        scalar = p.f.c1 / (lam - p.mu)
        if p.mu < lam:
            bound = scalar - w.c0 * perp_x
            if bound > 0.0 and min_ratio >= bound * (1.0 - CERT_SLACK):
                gsp, certified = bound, True
        else:
            bound = scalar + w.c0 * perp_x
            if bound < 0.0 and max_ratio <= bound * (1.0 - CERT_SLACK):
                gsn, certified = bound, True
    return LinearCertificate(
        solution=u,
        gsp=gsp,
        gsn=gsn,
        delta_f=delta_f,
        window_used=window,
        mu=p.mu,
        in_window=in_window,
        bound=bound,
        certified=certified,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
    )
