"""Discrete radial operators and their low-lying spectra.

The operator -Delta + q on R^N restricted to the angular sector ell acts on
the symmetrized variable w = r^((N-1)/2) u as

    -w'' + [ ((N-1)(N-3)/4 + ell(ell+N-2)) / r^2 + q(r) ] w

with Dirichlet ends, which discretizes to a symmetric tridiagonal matrix:
diagonal 2/h^2 + V_eff(r_i), off-diagonals -1/h^2.  For N = 1 "radial"
means parity: the even sector folds the line at the origin (Neumann row,
one off-diagonal becomes -sqrt(2)/h^2 after symmetrization against the
half-weight origin node), the odd sector is Dirichlet at 0.

Eigenvalues come from LAPACK bisection on the tridiagonal form.  The
principal eigenvector is computed by shifted inverse iteration with a
positive definite shift strictly below Lambda: each solve is then an
M-matrix system with positive right-hand side, which keeps every iterate
entrywise positive in floating point, so positivity of phi is structural
rather than a sign fix.

``summarize_spectrum`` assembles sector 0 once per run (``SpectrumSummary.op``)
and bisects it once.  lambda2 needs sectors 0 and 1 only: for N >= 2 all
sectors share the off-diagonal and T_{ell+1} - T_ell = (2 ell + N - 1)/r^2 is
positive diagonal, so by Courant-Fischer sector ell's lowest eigenvalue rises
with ell (N = 1 has two sectors).

Resolvent solves go through ``DiscreteOperator.solve_shifted``, the one
verified banded solve.  ``DiscreteOperator.factor(mu)`` LU-factors
``T - mu`` (LAPACK gttrf, partial pivoting, valid on both sides of the
spectrum) into an immutable ``Factors`` record that carries its shift;
each ``solve_shifted(fac, f)`` is one gttrs back-substitution, checked
against a backward-error residual bound before it is returned.  The
operator keeps no state: each solver driver factors its own shifts once
(solve_linear mu; solve_semilinear mu; solve_system mu + xi1 and
mu + xi2; monotone_solve mu - M and mu) and the record goes when the
driver returns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, solveh_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ConvergenceFailure, MalformedInput, SingularResolvent
from .groundstate_space import GroundstateVector
from .radial_grid import Grid, RadialPotential

EIGEN_BUDGET = 500
RESIDUAL_RTOL = 1e-10  # residual bound relative to the diagonal sup
SOLVE_RTOL = 1e-10  # backward-error bound of every resolvent solve
EXCLUSION = 1e-8  # least distance of a resolvent shift to a computed eigenvalue
RADIAL_EIGS = 6  # sector-0 eigenvalues summarize_spectrum reports


def _centrifugal(space_dim: int, sector: int) -> float:
    return (space_dim - 1) * (space_dim - 3) / 4.0 + sector * (sector + space_dim - 2)


class Factors(NamedTuple):
    """gttrf factors of T - mu together with the shift mu they belong to."""

    mu: float
    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetrized tridiagonal form of a single angular sector.

    ``diag``/``offdiag`` are the matrix entries in the w-variable.
    ``scale`` is sqrt of the quadrature weights on the operator's nodes;
    internal coordinates are ``x = scale * u`` so that the internal l2
    inner product equals the grid quadrature inner product.  ``start`` is
    the offset of the operator's nodes into the grid arrays (1 for the
    N = 1 odd sector, which excludes the origin; 0 otherwise).
    """

    grid: Grid
    sector: int
    diag: np.ndarray
    offdiag: np.ndarray
    scale: np.ndarray
    start: int

    @property
    def dim(self) -> int:
        return len(self.diag)

    @cached_property
    def norm_bound(self) -> float:
        """Infinity-norm bound of the tridiagonal matrix (row-sum bound)."""
        return float(np.max(np.abs(self.diag)) + 2.0 * np.max(np.abs(self.offdiag)))

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """Full-grid function -> internal coordinates."""
        return self.scale * np.asarray(u, dtype=float)[self.start :]

    def extend(self, x: np.ndarray) -> np.ndarray:
        """Internal coordinates -> full-grid function (zero at excluded nodes)."""
        u = np.zeros(len(self.grid.r))
        u[self.start :] = x / self.scale
        return u

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Apply L to a full-grid function, returning a full-grid function."""
        return self.extend(self._product(self.restrict(u)))

    def _product(self, x: np.ndarray) -> np.ndarray:
        """The tridiagonal product T x in internal coordinates."""
        y = self.diag * x
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        return y

    def solve_shifted(self, fac: Factors, f: np.ndarray) -> np.ndarray:
        """Solve (L - mu) u = f for full-grid functions f, u, verified.

        ``fac`` is ``self.factor(mu)``, made once per shift by the caller
        (partial pivoting, so valid on both sides of the spectrum), and
        each call is one back-substitution.  The solution is accepted only if
        ||(L - mu)u - f|| <= 1e-10 * (||f|| + (||L|| + |mu|) * ||u||): the
        backward-error scaling, since near Lambda ||u|| can dwarf ||f||.
        The grid norms are taken in internal coordinates, where they are
        plain l2 norms of x, b = scale * f and T x - mu x - b; the weighted
        f at excluded nodes, where u and L u vanish, enters both the
        residual and ||f||.  Raises SingularResolvent when the residual
        bound fails, which includes any NaN in f or u (an exactly zero
        pivot already raised in factor).
        """
        mu = fac.mu
        b = self.restrict(f)
        x, _ = dgttrs(fac.dl, fac.d, fac.du, fac.du2, fac.ipiv, b)
        r = self._product(x) - mu * x - b
        s = self.start
        outside = np.dot(self.grid.quad_weights[:s], np.asarray(f)[:s] ** 2) if s else 0.0
        resid = math.sqrt(np.dot(r, r) + outside)
        f_norm = math.sqrt(np.dot(b, b) + outside)
        u_norm = math.sqrt(np.dot(x, x))
        if not resid <= SOLVE_RTOL * (f_norm + (self.norm_bound + abs(mu)) * u_norm):
            raise SingularResolvent(
                f"resolvent solve at mu = {mu:.12g} misses the 1e-10 backward-error bound "
                f"(residual {resid:.3g}); mu too close to spectrum or data not finite"
            )
        return self.extend(x)

    def factor(self, mu: float) -> Factors:
        """gttrf factors of T - mu; a zero pivot raises SingularResolvent."""
        dl, d, du, du2, ipiv, info = dgttrf(self.offdiag, self.diag - mu, self.offdiag)
        if info != 0:
            raise SingularResolvent(f"T - mu is singular at mu = {mu:.12g}")
        return Factors(mu, dl, d, du, du2, ipiv)

    def quadratic_form(self, u: np.ndarray) -> float:
        """Discrete V-norm squared: quadrature of (Lu)*u.

        Summation by parts makes this the grid realization of
        the integral of |grad u|^2 + q u^2 over R^N (Dirichlet truncated).
        """
        x = self.restrict(u)
        return float(np.dot(x, self._product(x)))


def assemble(grid: Grid, pot: RadialPotential, sector: int) -> DiscreteOperator:
    """Build the symmetrized tridiagonal operator for one angular sector."""
    if sector < 0:
        raise MalformedInput("sector must be >= 0")
    h = grid.h
    if grid.space_dim == 1:
        if sector not in (0, 1):
            raise MalformedInput("N = 1 has parity sectors 0 and 1 only")
        if sector == 0:
            # even sector: origin node kept, Neumann fold at 0
            r = grid.r
            diag = 2.0 / h**2 + pot(r)
            off = np.full(len(r) - 1, -1.0 / h**2)
            off[0] = -np.sqrt(2.0) / h**2  # half-weight origin node
            start = 0
        else:
            r = grid.r[1:]
            diag = 2.0 / h**2 + pot(r)
            off = np.full(len(r) - 1, -1.0 / h**2)
            start = 1
    else:
        r = grid.r
        diag = 2.0 / h**2 + _centrifugal(grid.space_dim, sector) / r**2 + pot(r)
        off = np.full(len(r) - 1, -1.0 / h**2)
        start = 0
    scale = np.sqrt(grid.quad_weights[start:])
    return DiscreteOperator(grid=grid, sector=sector, diag=diag, offdiag=off, scale=scale, start=start)


def eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """First k eigenvalues of the sector operator (ascending)."""
    if not 1 <= k <= op.dim:
        raise MalformedInput(f"k must lie in 1..{op.dim}, got {k}")
    return eigh_tridiagonal(
        op.diag, op.offdiag, select="i", select_range=(0, k - 1), eigvals_only=True
    )


def eigenpairs(op: DiscreteOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues and quadrature-normalized full-grid eigenvectors.

    Column j of the returned matrix is the j-th eigenfunction.  Signs are
    not normalized here; use principal_eigenpair for the groundstate.
    """
    if not 1 <= k <= op.dim:
        raise MalformedInput(f"k must lie in 1..{op.dim}, got {k}")
    vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, k - 1))
    out = np.column_stack([op.extend(vecs[:, j]) for j in range(k)])
    return vals, out


def principal_eigenpair(op: DiscreteOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and positive normalized eigenfunction of a sector.

    The eigenvalue interval comes from bisection; the vector from inverse
    iteration at a shift strictly below the groundstate, which preserves
    entrywise positivity (see module docstring).  The residual bound
    ||L phi - Lambda phi|| <= 1e-10 * ||diag||_inf is enforced.

    Raises ConvergenceFailure if the iteration budget or the residual
    bound is exceeded.
    """
    if op.sector != 0:
        raise MalformedInput("principal eigenpair is defined on the ell = 0 sector")
    lo2 = eigenvalues(op, 2)
    lam, lam_next = float(lo2[0]), float(lo2[1])
    gap = lam_next - lam
    if gap <= 0:
        raise ConvergenceFailure("degenerate groundstate in sector 0")
    sigma = lam - 0.05 * gap

    n = op.dim
    ab = np.zeros((2, n))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - sigma
    x = np.ones(n)
    x /= np.linalg.norm(x)
    scale_bound = float(np.max(np.abs(op.diag)))
    rho = lam
    # Iterate to the arithmetic floor: the attainable residual is a small
    # multiple of eps*||L||, so stop only once the residual plateaus (no
    # factor-2 gain in a step) or reaches eps-level relative to the scale.
    prev_res = math.inf
    for _ in range(EIGEN_BUDGET):
        x = solveh_banded(ab, x, lower=False)
        x /= np.linalg.norm(x)
        y = op._product(x)
        rho = float(np.dot(x, y))
        res = float(np.linalg.norm(y - rho * x))
        if res <= 1e-14 * scale_bound or res > 0.5 * prev_res:
            break
        prev_res = res
    if np.linalg.norm(y - rho * x) > RESIDUAL_RTOL * scale_bound:
        raise ConvergenceFailure("inverse iteration residual above bound")
    if np.min(x) <= 0:
        raise ConvergenceFailure("groundstate lost positivity")

    u = op.extend(x)
    u /= np.sqrt(op.grid.integrate(u * u))
    return rho, u


def second_eigenvalue(grid: Grid, pot: RadialPotential, radial: np.ndarray) -> tuple[float, int]:
    """Second eigenvalue of L across angular sectors, with its sector.

    min(radial[1], lowest eigenvalue of sector 1), ties to sector 0.  By
    Courant-Fischer (see the module docstring) no sector above 1 is lower.
    N = 1 has two sectors.
    """
    first1 = float(eigenvalues(assemble(grid, pot, 1), 1)[0])
    return min((float(radial[1]), 0), (first1, 1))


@dataclass(frozen=True)
class SpectrumSummary:
    """Principal eigenpair, its sector-0 operator ``op`` and the context the solvers need."""

    Lambda: float
    phi: GroundstateVector
    lambda2: float
    lambda2_sector: int
    radial_eigs: np.ndarray
    op: DiscreteOperator

    @property
    def gap(self) -> float:
        return self.lambda2 - self.Lambda

    def check_off_spectrum(self, mu: float) -> None:
        """Raise SingularResolvent if mu is within EXCLUSION of a computed eigenvalue."""
        known = np.append(self.radial_eigs, self.lambda2)
        if np.min(np.abs(known - mu)) < EXCLUSION:
            raise SingularResolvent(
                f"mu = {mu:.12g} is within {EXCLUSION:g} of a computed eigenvalue"
            )


def summarize_spectrum(grid: Grid, pot: RadialPotential) -> SpectrumSummary:
    """(Lambda, phi), lambda2 across sectors and radial eigenvalues, on one op."""
    op0 = assemble(grid, pot, 0)
    lam, phi_vals = principal_eigenpair(op0)
    radial = eigenvalues(op0, RADIAL_EIGS)
    lam2, sector = second_eigenvalue(grid, pot, radial)
    if not (0.0 < lam < lam2):
        raise ConvergenceFailure("spectral ordering 0 < Lambda < lambda2 violated")
    phi = GroundstateVector(
        values=phi_vals, c1=1.0, perp=np.zeros_like(phi_vals), x_norm=1.0
    )
    return SpectrumSummary(
        Lambda=lam,
        phi=phi,
        lambda2=lam2,
        lambda2_sector=sector,
        radial_eigs=radial,
        op=op0,
    )
