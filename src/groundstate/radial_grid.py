"""Radial computational domain, R^N quadrature, and potential admissibility.

The solvers in this package work on radial functions of ``r = |x|`` for
``x`` in R^N, truncated to ``[0, r_max]`` with a Dirichlet condition at
``r_max``.  This module owns two things:

* :class:`RadialPotential` -- an evaluator ``q(r)`` plus the radius ``R0``
  beyond which ``q`` is nondecreasing, with builtins and a CSV loader;
* :class:`Grid` / :func:`build_grid` / :func:`make_grid` -- uniform node
  layout with per-node weights for the full R^N volume integral, so that a
  grid function normalized under :meth:`Grid.integrate` is L2-normalized
  over R^N, surface area of the unit sphere included.

For ``N >= 2`` the nodes are ``r_i = i*h``, ``i = 1..n`` with
``h = r_max/(n+1)``; the origin and ``r_max`` are not nodes.  For ``N = 1``
the domain is the symmetric interval ``[-r_max, r_max]`` reduced by parity:
the grid keeps an explicit node at the origin (weight ``h`` versus ``2h``
elsewhere) so that even-sector functions carry a genuine value at 0.

The admissible potentials are positive, eventually increasing and
super-quadratic: the integral of ``q**-0.5`` converges at infinity.  Where
a builtin can leave that class the check is exact: ``c + r**s`` is
admissible exactly when ``c > 0`` and ``s > 2``, and :func:`power_potential`
refuses anything else; ``exp(r)`` always is.  A table fixes ``q`` only up
to its last row, and no finite table decides the growth at infinity, so
a tabulated potential is checked only where the grid samples it
(finite, positive, nondecreasing beyond ``r0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MalformedInput, NotIncreasing, UnboundedSearch

#: default multiple of the spectral scale that q(r_max) must reach
TRUNCATION_FACTOR = 4.0

#: hard cap for the truncation-radius search
R_MAX_CAP = 1.0e4


def sphere_area(space_dim: int) -> float:
    """Surface area of the unit sphere in R^N (2 for N=1, 2*pi for N=2, ...)."""
    return 2.0 * math.pi ** (space_dim / 2.0) / math.gamma(space_dim / 2.0)


@dataclass(frozen=True)
class RadialPotential:
    """A radial potential q(r), positive and eventually increasing.

    Parameters
    ----------
    evaluator : callable
        Vectorized map from radii (ndarray, r >= 0) to potential values.
    r0 : float
        Radius beyond which q is nondecreasing.  The potential is
        dimension-independent; the same object serves any N.
    name : str
        Label used in reports and output files.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    r0: float = 0.0
    name: str = "custom"

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(r, dtype=float)), dtype=float)


def power_potential(c: float, s: float, r0: float = 1.0) -> RadialPotential:
    """q(r) = c + r**s, admissible exactly for c > 0 and s > 2.

    For s <= 2 the integral of q**-0.5 diverges at infinity, so MalformedInput
    names the config key potential.s (a NaN fails either check).
    """
    if not c > 0:
        raise MalformedInput(f"potential.c = {c:g}: the power potential needs c > 0")
    if not s > 2:
        raise MalformedInput(
            f"potential.s = {s:g}: the power potential needs s > 2 "
            "(the integral of q**-0.5 diverges for s <= 2)"
        )
    return RadialPotential(lambda r: c + r**s, r0=r0, name=f"power(c={c:g},s={s:g})")


def exp_potential(r0: float = 0.0) -> RadialPotential:
    """q(r) = exp(r)."""
    return RadialPotential(lambda r: np.exp(r), r0=r0, name="exp")


def read_table(path: str, column: str, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Columns r and ``column`` of a CSV headed ``r,<column>``, any number of rows.

    MalformedInput (on the ``what`` table) unless entries are finite, r increasing.
    """
    try:
        raw = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise MalformedInput(f"cannot read {what} table: {exc}") from exc
    if raw.dtype.names is None or tuple(raw.dtype.names[:2]) != ("r", column):
        raise MalformedInput(f"{what} table must have header 'r,{column}'")
    r_tab = np.atleast_1d(raw["r"]).astype(float)
    values = np.atleast_1d(raw[column]).astype(float)
    if not (np.all(np.isfinite(r_tab)) and np.all(np.isfinite(values))):
        raise MalformedInput(f"{what} table entries must be finite numbers")
    if not np.all(np.diff(r_tab) > 0):
        raise MalformedInput(f"{what} table radii must be strictly increasing")
    return r_tab, values


def tabulated_potential(path: str, r0: float | None = None) -> RadialPotential:
    """Load a potential from a two-column CSV with header ``r,q``.

    Entries must be finite and radii strictly increasing.  Evaluation
    interpolates linearly inside the table and extends the last segment's
    slope beyond it (a negative end slope then fails the grid's
    monotonicity check on nodes past the table).  When ``r0`` is not given
    it defaults to the first tabulated radius from which the values are
    nondecreasing.
    """
    r_tab, q_tab = read_table(path, "q", "potential")
    if r_tab.size < 2:
        raise MalformedInput("potential table needs at least two rows")

    end_slope = (q_tab[-1] - q_tab[-2]) / (r_tab[-1] - r_tab[-2])

    def evaluate(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inside = np.interp(r, r_tab, q_tab)
        return np.where(r > r_tab[-1], q_tab[-1] + end_slope * (r - r_tab[-1]), inside)

    if r0 is None:
        drops = np.nonzero(np.diff(q_tab) < 0)[0]
        r0 = float(r_tab[drops[-1] + 1]) if drops.size else float(r_tab[0])
    return RadialPotential(evaluate, r0=float(r0), name="table")


def require_increasing(r: np.ndarray, q: np.ndarray, r0: float) -> None:
    """Raise NotIncreasing if the samples q(r) decrease anywhere on r >= r0.

    ``r`` must be ascending.  A drop counts only beyond a 1e-12 relative
    slack, so flat potentials survive rounding.
    """
    beyond = r >= r0
    q_tail = q[beyond]
    drops = np.diff(q_tail) < -1e-12 * np.abs(q_tail[:-1])
    if np.any(drops):
        where = float(r[beyond][:-1][drops][0])
        raise NotIncreasing(f"q decreases beyond r0 near r = {where:.6g}")


@dataclass(frozen=True)
class Grid:
    """Uniform radial grid with R^N quadrature weights.

    Attributes
    ----------
    space_dim : int
        Dimension N >= 1.
    r_max : float
        Truncation radius (Dirichlet boundary).
    n : int
        Number of interior nodes strictly inside (0, r_max).  For N = 1 the
        node array additionally contains the origin, so ``len(r) == n + 1``
        there and ``len(r) == n`` otherwise.
    h : float
        Spacing r_max/(n+1).
    r : ndarray
        Node radii.
    quad_weights : ndarray
        Per-node weights; ``sum(w * f(r))`` approximates the integral of
        the radial function f over R^N (over the ball of radius r_max).
    """

    space_dim: int
    r_max: float
    n: int
    h: float
    r: np.ndarray
    quad_weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a grid function against the R^N volume measure."""
        return float(np.dot(self.quad_weights, values))

    def norm(self, values: np.ndarray) -> float:
        """L2 norm over R^N under the grid quadrature."""
        return math.sqrt(max(self.integrate(np.asarray(values) ** 2), 0.0))

    def ball_volume(self) -> float:
        """Closed-form volume of the ball of radius r_max (quadrature oracle)."""
        return sphere_area(self.space_dim) * self.r_max**self.space_dim / self.space_dim

    def truncation_margin(self, pot: RadialPotential, spectral_scale: float) -> float:
        """q(r_max)/spectral_scale; adequacy means this exceeds the factor in use."""
        return float(pot(np.array([self.r_max]))[0] / spectral_scale)


def make_grid(space_dim: int, r_max: float, n: int) -> Grid:
    """Construct a grid directly from (N, r_max, n)."""
    if space_dim < 1:
        raise MalformedInput("space_dim must be >= 1")
    if r_max <= 0 or n < 2:
        raise MalformedInput("need r_max > 0 and n >= 2")
    h = r_max / (n + 1)
    area = sphere_area(space_dim)
    if space_dim == 1:
        # origin node folds the two half-lines: half weight there
        r = np.arange(0, n + 1) * h
        w = np.full(n + 1, area * h)
        w[0] = 0.5 * area * h
    else:
        r = np.arange(1, n + 1) * h
        with np.errstate(over="ignore"):
            w = area * r ** (space_dim - 1) * h
    if not np.all(np.isfinite(w) & (w > 0)):
        raise MalformedInput(
            "grid quadrature weights are not finite and positive (r_max too large)"
        )
    return Grid(space_dim=space_dim, r_max=float(r_max), n=int(n), h=float(h), r=r, quad_weights=w)


def build_grid(
    pot: RadialPotential,
    space_dim: int,
    spectral_scale: float,
    points_per_unit: float = 200.0,
    truncation_factor: float = TRUNCATION_FACTOR,
) -> Grid:
    """Choose r_max from the potential and build the grid.

    ``r_max`` is the smallest radius with
    ``q(r_max) >= truncation_factor * spectral_scale`` (located by scan plus
    bisection); ``n = ceil(points_per_unit * r_max)``.  ``spectral_scale``
    should be an a-priori upper estimate of the largest spectral quantity in
    use (second eigenvalue plus window width), so that the Dirichlet
    truncation sits deep in the classically forbidden region.

    Raises
    ------
    UnboundedSearch
        If no radius below the hard cap reaches the threshold.
    """
    if spectral_scale <= 0:
        raise MalformedInput("spectral_scale must be positive")
    target = truncation_factor * spectral_scale

    hi = 1.0
    while float(pot(np.array([hi]))[0]) < target:
        hi *= 2.0
        if hi > R_MAX_CAP:
            raise UnboundedSearch(
                f"q never reaches {target:g} below r = {R_MAX_CAP:g}"
            )
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(pot(np.array([mid]))[0]) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    r_max = hi
    n = int(math.ceil(points_per_unit * r_max))
    return make_grid(space_dim, r_max, max(n, 2))
