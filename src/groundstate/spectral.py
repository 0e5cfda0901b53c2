"""Discrete radial operators and their low-lying spectra.

The operator -Delta + q on R^N restricted to the angular sector ell acts on
the symmetrized variable w = r^((N-1)/2) u as

    -w'' + [ ((N-1)(N-3)/4 + ell(ell+N-2)) / r^2 + q(r) ] w

with Dirichlet ends, which discretizes to a symmetric tridiagonal matrix:
diagonal 2/h^2 + V_eff(r_i), off-diagonals -1/h^2.  For N = 1 "radial"
means parity: the even sector folds the line at the origin (Neumann row,
one off-diagonal becomes -sqrt(2)/h^2 after symmetrization against the
half-weight origin node), the odd sector is Dirichlet at 0, without the
origin node.  Every solve and product acts on sector 0, the
``DiscreteOperator`` on every grid node that ``assemble`` builds; another
sector's ``sector_matrix`` tridiagonal is only bisected, for lambda2.

Eigenvalues come from LAPACK bisection (stebz) on the tridiagonal form.
The principal eigenvector is computed by shifted inverse iteration with a
positive definite shift strictly below Lambda, one LAPACK ptsv solve per
step: each solve is then an M-matrix system with positive right-hand
side, which keeps every iterate entrywise positive in floating point, so
positivity of phi is structural rather than a sign fix.

``summarize_spectrum`` assembles sector 0 once per run and bisects it once,
for RADIAL_EIGS eigenvalues; those values also give the principal
eigenpair its shift, and ``eigenfunctions`` turns the first two into phi2
(LAPACK stein) without a second bisection.  The ``SpectrumSummary`` it
returns is the one handle on that operator (``op``) and its groundstate
(``Lambda`` and the positive ``phi``): the window estimate and the solvers
take the summary and read ``op`` from it.
lambda2 needs sectors 0 and 1 only: for N >= 2 all sectors share the
off-diagonal and T_{ell+1} - T_ell = (2 ell + N - 1)/r^2 is positive
diagonal, so by Courant-Fischer sector ell's lowest eigenvalue rises with
ell (N = 1 has two sectors).

Every tridiagonal solve of ``T - mu`` is one LAPACK gtsv elimination
(partial pivoting, valid on both sides of the spectrum) in
``DiscreteOperator``, and no solve keeps a factorization.
``solve_shifted(mu, f)``, the one verified resolvent solve, checks the
solution against a backward-error residual bound before it is returned.
The Newton steps of solve_semilinear, and the block Gauss-Seidel Newton
steps of solve_system (one per diagonalized component, at mu + xi1 and
mu + xi2), solve a Jacobian ``T - mu - diag(d)`` with
``solve_unverified``, the same elimination without the check: those
solutions are search directions, not claims, and the limit they lead to
is verified through ``solve_shifted``.  The window estimate
(groundstate_space.projected_resolvent_norm) eliminates its n x 2 blocks
through the same gtsv call.  This module is the package's one caller of
LAPACK (gtsv, ptsv, stebz, stein).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv, dptsv, dstebz, dstein

from .errors import ConvergenceFailure, MalformedInput, SingularResolvent
from .radial_grid import Grid, RadialPotential

EIGEN_BUDGET = 500
RESIDUAL_RTOL = 1e-10  # residual bound relative to the diagonal sup
SOLVE_RTOL = 1e-10  # backward-error bound of every resolvent solve
EXCLUSION = 1e-8  # least distance of a resolvent shift to a computed eigenvalue
RADIAL_EIGS = 6  # sector-0 eigenvalues summarize_spectrum reports


def _centrifugal(space_dim: int, sector: int) -> float:
    return (space_dim - 1) * (space_dim - 3) / 4.0 + sector * (sector + space_dim - 2)


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetrized tridiagonal form of the sector-0 operator L on every grid node.

    ``diag``/``offdiag`` are the matrix entries in the w-variable.
    ``scale`` is sqrt of the quadrature weights; internal coordinates are
    ``x = scale * u`` so that the internal l2 inner product equals the
    grid quadrature inner product.
    """

    grid: Grid
    diag: np.ndarray
    offdiag: np.ndarray
    scale: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diag)

    @cached_property
    def norm_bound(self) -> float:
        """Infinity-norm bound of the tridiagonal matrix (row-sum bound)."""
        return float(np.max(np.abs(self.diag)) + 2.0 * np.max(np.abs(self.offdiag)))

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """Grid function -> internal coordinates."""
        return self.scale * np.asarray(u, dtype=float)

    def extend(self, x: np.ndarray) -> np.ndarray:
        """Internal coordinates -> grid function."""
        return x / self.scale

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Apply L to a grid function."""
        return self.extend(self._product(self.restrict(u)))

    def _product(self, x: np.ndarray) -> np.ndarray:
        """The tridiagonal product T x in internal coordinates."""
        y = self.diag * x
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        return y

    def solve_shifted(self, mu: float, f: np.ndarray) -> np.ndarray:
        """Solve (L - mu) u = f for grid functions f, u, verified.

        One gtsv elimination of T - mu (partial pivoting, so valid on both
        sides of the spectrum).  The solution is accepted only if
        ||(L - mu)u - f|| <= 1e-10 * (||f|| + (||L|| + |mu|) * ||u||): the
        backward-error scaling, since near Lambda ||u|| can dwarf ||f||.
        The grid norms are taken in internal coordinates, where they are
        plain l2 norms of x, b = scale * f and T x - mu x - b.  gtsv
        eliminates scale * f in place, so while it runs the solve holds
        four n-vectors (that right-hand side, which becomes x, and gtsv's
        three diagonals); b is formed again for the residual, next to x and
        r.  Raises SingularResolvent on an exactly zero
        pivot, when the residual bound fails, which includes any NaN in f
        or u, and when the bound itself overflows to inf.
        """
        x = self._eliminate(mu, None, self.restrict(f))
        r = self._product(x)
        r -= mu * x
        b = self.restrict(f)
        r -= b
        resid = math.sqrt(np.dot(r, r))
        f_norm = math.sqrt(np.dot(b, b))
        u_norm = math.sqrt(np.dot(x, x))
        if not resid <= SOLVE_RTOL * (f_norm + (self.norm_bound + abs(mu)) * u_norm) < math.inf:
            raise SingularResolvent(
                f"resolvent solve at mu = {mu:.12g} misses the 1e-10 backward-error bound "
                f"(residual {resid:.3g}); mu too close to spectrum, or data not finite or too large"
            )
        x /= self.scale
        return x

    def solve_unverified(self, mu: float, d: np.ndarray, f: np.ndarray) -> np.ndarray | None:
        """Solve (L - mu - diag(d)) u = f for grid functions d, f, u, unchecked.

        For search directions only (the Newton steps of solve_semilinear
        and solve_system, whose limits solve_shifted verifies): the
        elimination of solve_shifted with no residual check.  None when
        the matrix has an exactly zero pivot.
        """
        try:
            x = self._eliminate(mu, d, self.restrict(f))
        except SingularResolvent:
            return None
        x /= self.scale
        return x

    def _eliminate(self, mu: float, d: np.ndarray | None, b: np.ndarray) -> np.ndarray:
        """x with (T - mu - diag(d)) x = b, d a grid function or None for 0.

        b is one right-hand side or an n x k block (Fortran-ordered to be
        solved in place).  One LAPACK gtsv elimination with partial
        pivoting, which overwrites b with x; SingularResolvent naming mu on
        an exactly zero pivot.
        """
        dm = self.diag - mu
        if d is not None:
            dm -= d
        *_, x, info = dgtsv(self.offdiag, dm, self.offdiag, b, overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise SingularResolvent(f"T - mu is singular at mu = {mu:.12g}")
        return x


def sector_matrix(grid: Grid, pot: RadialPotential, sector: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, offdiag) of the symmetrized tridiagonal form of one angular sector."""
    if sector < 0:
        raise MalformedInput("sector must be >= 0")
    h = grid.h
    if grid.space_dim == 1:
        if sector not in (0, 1):
            raise MalformedInput("N = 1 has parity sectors 0 and 1 only")
        # even sector: origin node kept, Neumann fold at 0; odd: Dirichlet at 0
        r = grid.r if sector == 0 else grid.r[1:]
        diag = 2.0 / h**2 + pot(r)
        off = np.full(len(r) - 1, -1.0 / h**2)
        if sector == 0:
            off[0] = -np.sqrt(2.0) / h**2  # half-weight origin node
    else:
        r = grid.r
        diag = 2.0 / h**2 + _centrifugal(grid.space_dim, sector) / r**2 + pot(r)
        off = np.full(len(r) - 1, -1.0 / h**2)
    return diag, off


def assemble(grid: Grid, pot: RadialPotential) -> DiscreteOperator:
    """Build the sector-0 operator L on every grid node."""
    diag, off = sector_matrix(grid, pot, 0)
    return DiscreteOperator(grid=grid, diag=diag, offdiag=off, scale=np.sqrt(grid.quad_weights))


def eigenvalues(diag: np.ndarray, offdiag: np.ndarray, k: int) -> np.ndarray:
    """First k eigenvalues of the symmetric tridiagonal (diag, offdiag), ascending.

    LAPACK stebz bisection for the eigenvalues of index 1..k, in
    ascending order.  ABSTOL is passed as 0, which stebz reads as
    ulp*||T||_1: each eigenvalue is bisected to an absolute width of
    about 4*eps/h**2 here (||T||_1 is 4/h**2 plus the largest diagonal
    potential term), not to full relative accuracy.  The k values are
    returned in an array of their own.  Raises LinAlgError if some
    eigenvalue fails to converge.
    """
    if not 1 <= k <= len(diag):
        raise MalformedInput(f"k must lie in 1..{len(diag)}, got {k}")
    m, w, _, _, info = dstebz(diag, offdiag, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz did not converge (LAPACK info={info})")
    return w[:m].copy()  # a view would keep stebz's n-length output alive


def eigenfunctions(op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """Quadrature-normalized grid eigenfunctions at op's lowest eigenvalues.

    ``values`` are the first k eigenvalues of op from ``eigenvalues``
    (stebz bisection); column j is the eigenfunction of values[j], from
    LAPACK stein inverse iteration with T taken as one unreduced block.
    Bisection splits T only where offdiag_j^2 < eps^2 |diag_j diag_(j-1)|,
    which for offdiag = -1/h^2 needs q above ~1e15/h^2.  Signs are not
    normalized.
    """
    n = op.dim
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    vecs, info = dstein(op.diag, op.offdiag, values, iblock, isplit)
    if info != 0:
        raise ConvergenceFailure(f"{info} eigenvectors failed to converge")
    return np.column_stack([op.extend(vecs[:, j]) for j in range(len(values))])


def principal_eigenpair(op: DiscreteOperator, lowest: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and positive normalized eigenfunction of L.

    The eigenvalue interval comes from bisection (``lowest``, op's first
    two or more eigenvalues, bisected by the caller); the vector from inverse
    iteration at a shift sigma strictly below the groundstate, which
    preserves entrywise positivity (see module docstring): each step is
    one LAPACK ptsv solve with the positive definite T - sigma.  The
    residual bound ||L phi - Lambda phi|| <= 1e-10 * ||diag||_inf is
    enforced.

    Raises ConvergenceFailure if the iteration budget or the residual
    bound is exceeded, LinAlgError if T - sigma is not numerically
    positive definite.
    """
    lam, lam_next = float(lowest[0]), float(lowest[1])
    gap = lam_next - lam
    if gap <= 0:
        raise ConvergenceFailure("degenerate groundstate in sector 0")
    sigma = lam - 0.05 * gap

    d = op.diag - sigma
    x = np.ones(op.dim)
    x /= np.linalg.norm(x)
    scale_bound = float(np.max(np.abs(op.diag)))
    rho = lam
    # Iterate to the arithmetic floor: the attainable residual is a small
    # multiple of eps*||L||, so stop only once the residual plateaus (no
    # factor-2 gain in a step) or reaches eps-level relative to the scale.
    prev_res = math.inf
    for _ in range(EIGEN_BUDGET):
        _, _, x, info = dptsv(d, op.offdiag, x)
        if info != 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        x /= np.linalg.norm(x)
        y = op._product(x)
        rho = float(np.dot(x, y))
        res = float(np.linalg.norm(y - rho * x))
        if res <= 1e-14 * scale_bound or res > 0.5 * prev_res:
            break
        prev_res = res
    if res > RESIDUAL_RTOL * scale_bound:
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
    N = 1 has two sectors.  Sector 1 is bisected from its tridiagonal alone.
    """
    first1 = float(eigenvalues(*sector_matrix(grid, pot, 1), 1)[0])
    return min((float(radial[1]), 0), (first1, 1))


@dataclass(frozen=True)
class SpectrumSummary:
    """Principal eigenpair, its sector-0 operator ``op`` and the context the solvers need.

    ``phi`` is the positive groundstate on the grid nodes, normalized to
    unit quadrature norm.
    """

    Lambda: float
    phi: np.ndarray
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
    """(Lambda, phi), lambda2 across sectors and radial eigenvalues, on one op.

    Sector 0 is bisected once: its RADIAL_EIGS eigenvalues feed the
    principal eigenpair, lambda2 and (through ``eigenfunctions``) phi2.
    """
    op0 = assemble(grid, pot)
    radial = eigenvalues(op0.diag, op0.offdiag, RADIAL_EIGS)
    lam, phi = principal_eigenpair(op0, radial)
    lam2, sector = second_eigenvalue(grid, pot, radial)
    if not (0.0 < lam < lam2):
        raise ConvergenceFailure("spectral ordering 0 < Lambda < lambda2 violated")
    return SpectrumSummary(
        Lambda=lam,
        phi=phi,
        lambda2=lam2,
        lambda2_sector=sector,
        radial_eigs=radial,
        op=op0,
    )
