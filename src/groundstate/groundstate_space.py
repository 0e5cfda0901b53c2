"""The groundstate-weighted space X and its resolvent constants.

X is the space of grid functions h with |h|/phi bounded; its norm is the
sup of that ratio over the nodes.  Every function splits as
u = u1*phi + uperp with u1 the quadrature projection onto phi and uperp
quadrature-orthogonal to phi.  For parameters mu near Lambda the solvers
need two constants: the half-width delta0 of the admissible window below
lambda2, and a bound c0 on the X-operator norm of the resolvent restricted
to the phi-orthogonal complement.  c0 is estimated, not derived: the
weighted matrix norm || D_phi^-1 Pi (L-mu)^-1 Pi D_phi ||_inf is estimated
at sampled mu across the window and the max is reported together with the
samples used.  Each sample is a Higham-Tisseur block 1-norm estimate, which
needs only products with the matrix and its transpose, i.e. banded solves,
so it costs O(n) time and memory.  Such an estimate is a lower bound in
general (on the grids tested it equals the dense evaluation to rounding).
Soundness does not rest on c0: every certificate is re-verified pointwise
downstream, so a low c0 can widen a window but never make a claim wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dgttrs

from .errors import MalformedInput

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .spectral import DiscreteOperator, SpectrumSummary

#: rows where phi is below this fraction of its max are dropped from the
#: weighted-norm row sums; solves there are rounding-dominated, the same
#: reason the artificial boundary is excluded from the sup
ROW_FLOOR = 1e-12

#: relative slack of every pointwise certificate check, in ratio space: a
#: bound is attained exactly when the data are groundstate multiples, and
#: then only rounding separates the computed ratio from it
CERT_SLACK = 1e-6

#: block width and iteration cap of the c0 norm estimator
NORMEST_BLOCK = 2
NORMEST_ITMAX = 5
#: fixed seed of the estimator's random +-1 columns: reruns are bit-identical
#: and the global numpy random state is never touched
NORMEST_SEED = 20001


@dataclass(frozen=True)
class GroundstateVector:
    """A grid function with its groundstate decomposition attached.

    values = c1*phi + perp exactly, with quadrature(perp * phi) = 0 and
    x_norm = sup |values|/phi over the nodes.
    """

    values: np.ndarray
    c1: float
    perp: np.ndarray
    x_norm: float


def x_norm(v: np.ndarray, phi: np.ndarray) -> float:
    """sup over nodes of |v|/phi (the groundstate-weighted sup norm)."""
    return float(np.max(np.abs(v) / phi))


def decompose(v: np.ndarray, phi: np.ndarray, quad_weights: np.ndarray) -> GroundstateVector:
    """Split v into its phi component and the quadrature-orthogonal rest."""
    v = np.asarray(v, dtype=float)
    c1 = float(np.dot(quad_weights, v * phi))
    perp = v - c1 * phi
    return GroundstateVector(values=v, c1=c1, perp=perp, x_norm=x_norm(v, phi))


@dataclass(frozen=True)
class WindowEstimate:
    """delta0 and the sampled resolvent constant c0.

    mu_samples are the shifts where the weighted norm was estimated; c0 is
    the max over them.  Certificates that use c0 are re-verified pointwise
    downstream, so c0 being an estimate degrades windows, never soundness.
    """

    delta0: float
    c0: float
    mu_samples: np.ndarray


def _resample_parallel(S: np.ndarray, S_old: np.ndarray, rng: np.random.Generator) -> None:
    """Redraw +-1 columns of S parallel to an earlier column of S or to one of S_old."""
    n = S.shape[0]
    for j in range(S.shape[1]):
        while np.any(np.abs(np.hstack((S[:, :j], S_old)).T @ S[:, j]) == n):
            S[:, j] = rng.choice((-1.0, 1.0), size=n)


def _block_one_norm(apply_a, apply_at, n: int, rng: np.random.Generator) -> float:
    """Higham-Tisseur (2000, Alg. 2.4) block estimate of ||A||_1.

    Needs only the products A @ X and A.T @ Y on n x NORMEST_BLOCK blocks.
    The value returned is the 1-norm of a column of A @ X for some X with
    unit-1-norm columns, so it never exceeds ||A||_1 (up to rounding).
    """
    t = NORMEST_BLOCK
    X = np.ones((n, t))
    X[:, 1:] = rng.choice((-1.0, 1.0), size=(n, t - 1))
    _resample_parallel(X, np.empty((n, 0)), rng)
    X /= n
    S = np.zeros((n, t))
    visited = np.zeros(0, dtype=np.intp)
    est_old = 0.0
    ind = np.zeros(0, dtype=np.intp)
    for k in range(1, NORMEST_ITMAX + 2):
        Y = apply_a(X)
        sums = np.abs(Y).sum(axis=0)
        best = int(np.argmax(sums))
        est = float(sums[best])
        if k >= 2 and est <= est_old:  # (1) no gain over the last iterate
            break
        est_old = est
        if k > NORMEST_ITMAX:
            break
        S_old, S = S, np.where(Y >= 0.0, 1.0, -1.0)
        if np.all(np.abs(S_old.T @ S).max(axis=0) == n):  # (2) sign vectors repeat
            break
        _resample_parallel(S, S_old, rng)
        h = np.abs(apply_at(S)).max(axis=1)
        if k >= 2 and h.max() == h[ind[best]]:  # (4) no column promises more
            break
        ind = np.argsort(-h, kind="stable")[: t + len(visited)]
        seen = np.isin(ind, visited)
        if seen[:t].all():  # (5) the most promising columns were all tried
            break
        ind = np.concatenate((ind[~seen], ind[seen]))
        X = np.zeros((n, t))
        X[ind[:t], np.arange(t)] = 1.0
        visited = np.concatenate((visited, ind[:t][~np.isin(ind[:t], visited)]))
    return est_old


def projected_resolvent_norm(
    op: "DiscreteOperator", phi: np.ndarray, quad_weights: np.ndarray, mu: float
) -> float:
    """Estimated weighted inf-norm of M = D_phi^-1 Pi (L-mu)^-1 Pi D_phi.

    Pi = I - phi (w phi)^T is the quadrature projection onto the
    phi-orthogonal complement.  The max row sum of |M| over the rows where
    phi is above the rounding floor equals ||A||_1 for A = M^T restricted
    to those columns, which the block 1-norm estimator evaluates from
    products with A and A^T alone.  Each product is one banded solve with
    (L-mu)^-1 = S^-1 (T-mu)^-1 S, its transpose S (T-mu)^-1 S^-1 (T is
    symmetric), against one ``op.factor(mu)`` per call.
    O(n) time and memory; the estimator draws from a fixed local seed, so
    the value is a deterministic function of the inputs.
    """
    keep = phi >= ROW_FLOOR * phi.max()
    inv_phi = np.divide(1.0, phi, out=np.zeros_like(phi), where=keep)[:, None]
    phi_col = phi[:, None]
    wphi = quad_weights * phi
    scale = op.scale[:, None]
    _, dl, d, du, du2, ipiv = op.factor(mu)

    def resolve(b: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        x, _ = dgttrs(dl, d, du, du2, ipiv, pre * b[op.start :])
        out[op.start :] = post * x
        return out

    def apply_m(Y: np.ndarray) -> np.ndarray:  # A^T Y = mask * (M Y)
        v = phi_col * Y
        v -= np.outer(phi, wphi @ v)
        v = resolve(v, scale, 1.0 / scale)
        v -= np.outer(phi, wphi @ v)
        return inv_phi * v

    def apply_mt(X: np.ndarray) -> np.ndarray:  # A X = M^T (mask * X)
        v = inv_phi * X
        v -= np.outer(wphi, phi @ v)
        v = resolve(v, 1.0 / scale, scale)
        v -= np.outer(wphi, phi @ v)
        return phi_col * v

    rng = np.random.default_rng(NORMEST_SEED)
    return _block_one_norm(apply_mt, apply_m, len(phi), rng)


def estimate_c0_delta0(summary: "SpectrumSummary", margin: float = 0.5) -> WindowEstimate:
    """Sample the weighted resolvent norm of summary.op across the window around Lambda.

    delta0 = margin * (lambda2 - Lambda); the norm is evaluated at
    mu = Lambda +/- delta0*k/4 for k = 1..4 and c0 is the max.  Raises
    SingularResolvent if a sample lands within 1e-8 of a computed
    eigenvalue.
    """
    if not 0.0 < margin < 1.0:
        raise MalformedInput("margin must sit strictly inside (0, 1)")
    delta0 = margin * (summary.lambda2 - summary.Lambda)
    samples = np.array(
        [summary.Lambda + s * delta0 * k / 4.0 for s in (-1.0, 1.0) for k in (1, 2, 3, 4)]
    )
    for mu in samples:
        summary.check_off_spectrum(float(mu))
    op = summary.op
    w = op.grid.quad_weights
    c0 = max(projected_resolvent_norm(op, summary.phi, w, float(mu)) for mu in samples)
    return WindowEstimate(delta0=float(delta0), c0=float(c0), mu_samples=np.sort(samples))
