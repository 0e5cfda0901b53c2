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
so it costs O(n) time and memory.  Each product is one gtsv elimination
of T - mu through the operator (DiscreteOperator._eliminate, the
elimination of every resolvent solve), on the whole n x 2 block.  A
sample's transient peak, about 4.6 n x 2 blocks of doubles, is reached
during that elimination, when the estimator's sign block S, the
F-ordered right-hand side, gtsv's three diagonals, 1/phi and w*phi are
live, and no other block is: the product has dropped its input.  The
estimator works on its n x 2 blocks one column at a time, in the
arithmetic and summation order of whole-block broadcasts and axis
reductions, so c0 has their bits at a fraction of their cost (see
projected_resolvent_norm).  Such an estimate is a lower bound in general
(on the grids tested it equals the dense evaluation to rounding).
Soundness does not rest on c0: every certificate is re-verified pointwise
downstream, so a low c0 can widen a window but never make a claim wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

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
    """A grid function with its groundstate component attached.

    c1 = quadrature(values * phi) is the quadrature projection onto phi,
    so values - c1*phi is quadrature-orthogonal to phi; a reader that needs
    that part forms it.  x_norm = sup |values|/phi over the nodes.
    """

    values: np.ndarray
    c1: float
    x_norm: float


def x_norm(v: np.ndarray, phi: np.ndarray) -> float:
    """sup over nodes of |v|/phi (the groundstate-weighted sup norm).

    |v| is formed as doubles and divided in place, so the norm holds one
    temporary of v's shape; an integer array or a list is cast first.
    """
    a = np.abs(v, dtype=float)
    a /= phi
    return float(a.max())


def x_distance(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> float:
    """x_norm(a - b, phi), bit for bit, with a - b as its only temporary.

    The X-norm step of the fixed-point iterations: a and b are double
    arrays of one shape, phi broadcasts against them.
    """
    d = np.subtract(a, b)
    np.abs(d, out=d)
    d /= phi
    return float(d.max())


def decompose(v: np.ndarray, phi: np.ndarray, quad_weights: np.ndarray) -> GroundstateVector:
    """v with its phi component c1 and its X-norm; the orthogonal rest is not stored."""
    v = np.asarray(v, dtype=float)
    c1 = float(np.dot(quad_weights, v * phi))
    return GroundstateVector(values=v, c1=c1, x_norm=x_norm(v, phi))


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


def _resample_parallel(
    S: np.ndarray, S_old: np.ndarray, old_max: np.ndarray, rng: np.random.Generator
) -> None:
    """Redraw +-1 columns of S parallel to an earlier column of S or to one of S_old.

    old_max[j] is max |S_old.T @ S[:, j]| as the caller formed it for its
    own test: the first check of column j reads it, and a redrawn column
    is checked against S_old afresh.  The dot products of +-1 columns are
    integers, so they are exact in any order.
    """
    n = S.shape[0]
    for j, m in enumerate(old_max.tolist()):
        while m == n or any(abs(np.dot(other, S[:, j])) == n for other in S[:, :j].T):
            S[:, j] = rng.choice((-1.0, 1.0), size=n)
            m = float(np.abs(S_old.T @ S[:, j]).max(initial=0.0))


def _start_block(n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """The first iterate: ones and random +-1 columns, none parallel, all divided by n."""
    X = np.ones((n, t))
    X[:, 1:] = rng.choice((-1.0, 1.0), size=(n, t - 1))
    _resample_parallel(X, np.empty((n, 0)), np.zeros(t), rng)
    X /= n
    return X


def _unit_block(n: int, rows: np.ndarray) -> np.ndarray:
    """The n x len(rows) block whose column j is the unit vector e_rows[j]."""
    X = np.zeros((n, len(rows)))
    X[rows, np.arange(len(rows))] = 1.0
    return X


def _top_k(h: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-h, kind="stable")[:k]``, sorting only the k largest candidates.

    np.partition finds the k-th value; every entry not beyond it (ties, and
    NaN, which sorts last) is a candidate, and a stable sort of the
    candidates in index order breaks ties as the full sort would.
    """
    neg = -h
    if k >= len(h):
        return np.argsort(neg, kind="stable")
    cut = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > cut))
    return cand[np.argsort(neg[cand], kind="stable")][:k]


def _column_sum(col: np.ndarray) -> float:
    """Sum in index order: the bits an axis-0 sum of a C-ordered block gives.

    A contiguous ``col.sum()`` adds pairwise, which changes the last bits.
    """
    return float(np.cumsum(col)[-1])


def _block_one_norm(apply_a, apply_at, n: int, rng: np.random.Generator) -> float:
    """Higham-Tisseur (2000, Alg. 2.4) block estimate of ||A||_1.

    Needs only the products A @ X and A.T @ Y on n x NORMEST_BLOCK blocks.
    The value returned is the 1-norm of a column of A @ X for some X with
    unit-1-norm columns, so it never exceeds ||A||_1 (up to rounding).
    Blocks are C-ordered; reductions over them go column by column, with
    the bits of the matching axis reductions (_column_sum, np.maximum).
    apply_a owns its input: each X is built in the call, handed over in a
    one-element list that apply_a empties, and never named here, so the
    product may overwrite it and free it once read.  (On CPython 3.10 a
    bare argument stays referenced by the calling frame until the call
    returns.)  apply_at reads S, which stays live for the next
    iteration's test (2).  S is formed in the buffer of the dead Y, and h
    is dropped once ranked.  So while a product eliminates, the estimator
    itself holds no n-length array but S.
    """
    t = NORMEST_BLOCK
    S = np.zeros((n, t))
    visited = np.zeros(0, dtype=np.intp)
    est_old = 0.0
    ind = np.zeros(0, dtype=np.intp)
    Y = apply_a([_start_block(n, t, rng)])
    for k in range(1, NORMEST_ITMAX + 2):
        sums = [_column_sum(np.abs(col)) for col in Y.T]
        best = int(np.argmax(sums))
        est = sums[best]
        if k >= 2 and est <= est_old:  # (1) no gain over the last iterate
            break
        est_old = est
        if k > NORMEST_ITMAX:
            break
        S_old, S = S, Y  # S = np.where(Y >= 0, 1, -1), in Y's buffer
        del Y
        np.multiply(S >= 0.0, 2.0, out=S)
        S -= 1.0
        old_max = np.abs(S_old.T @ S).max(axis=0)
        if np.all(old_max == n):  # (2) sign vectors repeat
            break
        _resample_parallel(S, S_old, old_max, rng)
        del S_old
        Z = apply_at(S)
        h = reduce(np.maximum, np.abs(Z, out=Z).T)
        del Z
        if k >= 2 and h.max() == h[ind[best]]:  # (4) no column promises more
            break
        ind = _top_k(h, t + len(visited))
        del h
        seen = np.isin(ind, visited)
        if seen[:t].all():  # (5) the most promising columns were all tried
            break
        ind = np.concatenate((ind[~seen], ind[seen]))
        visited = np.concatenate((visited, ind[:t][~np.isin(ind[:t], visited)]))
        Y = apply_a([_unit_block(n, ind[:t])])
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
    symmetric), and each solve with T - mu is one gtsv elimination of the
    F-ordered block through op._eliminate; a zero pivot raises
    SingularResolvent naming mu.  S and S^-1 are applied here as
    multiplies (op.extend divides by S, which can round differently).
    O(n) time and memory; the estimator draws from a fixed local seed, so
    the value is a deterministic function of the inputs.

    The n x NORMEST_BLOCK blocks are worked on column by column, each
    column with the products a broadcast would form.  They stay C-ordered
    wherever BLAS reads them (``phi @ v``, ``wphi @ v``): gemv sums a
    Fortran-ordered block in another order, which moves the last bits.
    """
    inv_phi = np.divide(1.0, phi, out=np.zeros_like(phi), where=phi >= ROW_FLOOR * phi.max())
    wphi = quad_weights * phi
    scale = op.scale

    def rows(a: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a[:, None] * B, column by column, C-ordered unless out says otherwise; out may be B."""
        if out is None:
            out = np.empty_like(B)
        for j in range(B.shape[1]):
            np.multiply(a, B[:, j], out=out[:, j])
        return out

    def rows_over_scale(B: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(1/scale)[:, None] * B, column by column, into out (not B).

        1/scale is formed in each column of out and multiplied in place,
        which gives the bits of a standing 1/scale array without holding one.
        """
        for j in range(B.shape[1]):
            np.divide(1.0, scale, out=out[:, j])
            out[:, j] *= B[:, j]
        return out

    def project(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """v -= outer(a, b @ v) in place, one column at a time."""
        for j, c in enumerate(b @ v):
            v[:, j] -= a * c

    # Each product forms the F-ordered right-hand side, drops its C-ordered
    # working block, lets gtsv eliminate in place and copies the solution
    # out to a fresh C-ordered block, so the estimator's S is the only
    # C-ordered block live during the elimination.
    def apply_m(Y: np.ndarray) -> np.ndarray:  # A^T Y = mask * (M Y); Y is S, kept
        v = rows(phi, Y)
        project(v, phi, wphi)
        rhs = rows(scale, v, out=np.empty(v.shape, order="F"))
        del v
        v = rows_over_scale(op._eliminate(mu, None, rhs), out=np.empty(rhs.shape))
        del rhs
        project(v, phi, wphi)
        return rows(inv_phi, v, out=v)

    def apply_mt(handoff: list[np.ndarray]) -> np.ndarray:  # A X = M^T (mask * X)
        X = handoff.pop()  # the only reference: X dies once read
        rows(inv_phi, X, out=X)
        project(X, wphi, phi)
        rhs = rows_over_scale(X, out=np.empty(X.shape, order="F"))
        del X
        v = rows(scale, op._eliminate(mu, None, rhs), out=np.empty(rhs.shape))
        del rhs
        project(v, wphi, phi)
        return rows(phi, v, out=v)

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
