"""Linear solves (L - mu)u = f with groundstate sign certificates.

Near Lambda the solution splits exactly: the phi component obeys
u1 = f1/(Lambda - mu) while the orthogonal part stays bounded by
c0*||fperp||_X.  When mu sits inside the f-dependent window
min{delta0, delta1(f)} with delta1(f) = f1/(c0*||fperp||_X), those two
facts pin the sign of u/phi: positive below Lambda (GSP), negative above
(GSN).  Certificates here are verified pointwise on the grid, never
trusted from the constants alone, because c0 is a sampled estimate.

A LinearProblem holds (L, f) for a whole sweep, L as the spectrum summary
that carries it: f is decomposed, ||fperp||_X computed and the
certificate hypothesis f1 > 0 checked once, and the shift mu is an
argument of each solve, which first checks mu against the computed
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, SingularResolvent
from .groundstate_space import CERT_SLACK, GroundstateVector, WindowEstimate, decompose, x_norm
from .spectral import SpectrumSummary

WINDOW_RULE_LINEAR = "min(delta0, f1/(c0*||fperp||_X))"


@dataclass(frozen=True)
class LinearProblem:
    """Data (L, f) for resolvent solves, f carried with its split.

    L is spectrum.op.
    perp_x is ||fperp||_X (0 when fperp vanishes identically).
    sign_defect says why f admits no sign certificate (f1 <= 0, or no
    finite ||f||_X), and is None when it does; certify_theorem1 raises it.
    """

    spectrum: SpectrumSummary
    f: GroundstateVector
    perp_x: float
    sign_defect: str | None

    def delta_f(self, w: WindowEstimate) -> float:
        """delta1(f) = f1/(c0*||fperp||_X), infinite when fperp = 0."""
        return math.inf if self.perp_x == 0.0 else self.f.c1 / (w.c0 * self.perp_x)


def linear_problem(spectrum: SpectrumSummary, f_values: np.ndarray) -> LinearProblem:
    """Decompose f against phi, measure its orthogonal part in X, check f1 > 0."""
    phi = spectrum.phi
    f = decompose(f_values, phi, spectrum.op.grid.quad_weights)
    f_perp = f.values - f.c1 * phi
    perp_x = x_norm(f_perp, phi) if np.any(f_perp) else 0.0
    if f.c1 <= 0.0:
        sign_defect = "sign certificates need f1 = quadrature(f*phi) > 0"
    elif not math.isfinite(x_norm(f.values, phi)):
        sign_defect = "f has no finite groundstate-weighted norm"
    else:
        sign_defect = None
    return LinearProblem(spectrum=spectrum, f=f, perp_x=perp_x, sign_defect=sign_defect)


def window_linear(p: LinearProblem, w: WindowEstimate) -> float:
    """Certified half-width min{delta0, delta1(f)} around Lambda."""
    return min(w.delta0, p.delta_f(w))


def solve_linear(p: LinearProblem, mu: float) -> GroundstateVector:
    """Verified banded solve of (L - mu)u = f plus a component check.

    mu must keep EXCLUSION distance from every computed eigenvalue.  The
    residual is checked inside solve_shifted; here the computed u1
    must also match f1/(Lambda - mu) to 1e-6 relative (the discrete
    identity is exact up to rounding since phi is an exact eigenvector of
    the matrix).
    """
    p.spectrum.check_off_spectrum(mu)
    op = p.spectrum.op
    u = op.solve_shifted(mu, p.f.values)
    ug = decompose(u, p.spectrum.phi, op.grid.quad_weights)
    expected = p.f.c1 / (p.spectrum.Lambda - mu)
    if abs(ug.c1 - expected) > 1e-6 * max(abs(expected), 1e-300):
        raise SingularResolvent("groundstate component identity u1 = f1/(Lambda-mu) violated")
    return ug


@dataclass(frozen=True)
class LinearCertificate:
    """Solve outcome plus the sign certificate when one was earned.

    bound is the certificate value f1/(Lambda-mu) -/+ c0*||fperp||_X
    whenever mu is in the window (None otherwise); certified records
    whether the solution has been verified against it pointwise.
    min_ratio/max_ratio are the raw sign statistics, always present so
    out-of-window sweeps still produce curves.
    """

    solution: GroundstateVector
    in_window: bool
    bound: float | None
    certified: bool
    min_ratio: float
    max_ratio: float


def certify_theorem1(p: LinearProblem, w: WindowEstimate, mu: float) -> LinearCertificate:
    """Solve and, inside the window, verify the sign bounds pointwise.

    Below Lambda the claim is min(u/phi) >= f1/(Lambda-mu) - c0*||fperp||_X
    with a positive right side; above Lambda it is
    max(u/phi) <= f1/(Lambda-mu) + c0*||fperp||_X with a negative right
    side.  Outside min{delta0, delta1(f)} only the raw solution and its
    sign statistics are reported.  Data without a sign certificate
    (LinearProblem.sign_defect) raises HypothesisViolated before any solve.
    """
    if p.sign_defect is not None:
        raise HypothesisViolated(p.sign_defect)

    window = window_linear(p, w)

    u = solve_linear(p, mu)
    ratio = u.values / p.spectrum.phi
    min_ratio, max_ratio = float(ratio.min()), float(ratio.max())

    lam = p.spectrum.Lambda
    in_window = 0.0 < abs(lam - mu) < window
    bound = None
    certified = False
    if in_window:
        # pointwise checks carry CERT_SLACK relative slack: when f is
        # parallel to phi the bound is attained exactly and only rounding
        # separates the computed ratio from it
        scalar = p.f.c1 / (lam - mu)
        if mu < lam:
            bound = scalar - w.c0 * p.perp_x
            certified = bool(bound > 0.0 and min_ratio >= bound * (1.0 - CERT_SLACK))
        else:
            bound = scalar + w.c0 * p.perp_x
            certified = bool(bound < 0.0 and max_ratio <= bound * (1.0 - CERT_SLACK))
    return LinearCertificate(
        solution=u,
        in_window=in_window,
        bound=bound,
        certified=certified,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
    )
