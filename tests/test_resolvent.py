"""The verified resolvent solve: factor counts, bit-identity and failure modes.

``DiscreteOperator.factor`` factors ``T - mu`` with LAPACK gttrf, and
``DiscreteOperator.solve_shifted`` back-substitutes with gttrs against
those factors; each solver driver factors its own shifts once per solve
(a semilinear solve twice, around its Newton steps), which the counts
below pin per driver and per ``groundstate run``, next to the
``solve_shifted`` calls of two-start fixed-point runs.  The
reference below is the plain ``solve_banded`` path it replaced, kept here
only as the oracle: for a (1, 1) band scipy runs gtsv, which performs the
same pivoted elimination, so the two must agree bit for bit.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from groundstate import (
    RadialPotential,
    analyze_matrix,
    assemble,
    eigenvalues,
    estimate_c0_delta0,
    linear_problem,
    make_grid,
    monotone_solve,
    rational_profile,
    solve_linear,
    summarize_spectrum,
    system_problem,
    system_two_start,
    two_start_diagnostics,
)
from groundstate import spectral
from groundstate.errors import SingularResolvent
from groundstate.experiment_cli import main

QUARTIC_3D = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")
QUARTIC_1D = RadialPotential(lambda r: r**4, name="quartic1d")


def reference_solve(op, mu: float, f: np.ndarray) -> np.ndarray:
    """The former solve_shifted: fresh (1, 1)-banded LU on every call."""
    ab = np.zeros((3, op.dim))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - mu
    ab[2, :-1] = op.offdiag
    return op.extend(solve_banded((1, 1), ab, op.restrict(f)))


def row_interchanges(op, mu: float) -> int:
    ipiv = spectral.dgttrf(op.offdiag, op.diag - mu, op.offdiag)[4]
    return int(np.count_nonzero(ipiv != np.arange(1, op.dim + 1)))


@pytest.mark.parametrize(
    "space_dim, r_max, pot, sector",
    [(3, 3.2, QUARTIC_3D, 0), (1, 4.0, QUARTIC_1D, 1)],
    ids=["N3-radial", "N1-odd"],
)
def test_solve_shifted_is_bit_identical_to_banded_reference(space_dim, r_max, pot, sector):
    op = assemble(make_grid(space_dim, r_max, 300), pot, sector)
    assert op.start == (1 if space_dim == 1 else 0)
    lam = float(eigenvalues(op, 1)[0])
    rng = np.random.default_rng(7)
    for mu in (lam - 0.1, lam + 0.1):
        if mu > lam:
            assert row_interchanges(op, mu) > 0  # the pivoted path is exercised
        fac = op.factor(mu)
        for _ in range(3):
            f = rng.standard_normal(len(op.grid.r))
            f[: op.start] = 0.0  # the odd sector vanishes at the origin
            # repeated calls reuse the factors and must not drift either
            assert np.array_equal(op.solve_shifted(fac, f), reference_solve(op, mu, f))


def test_nan_right_hand_side_raises_instead_of_returning_nan():
    op = assemble(make_grid(3, 3.2, 200), QUARTIC_3D, 0)
    mu = float(eigenvalues(op, 1)[0]) - 0.1
    f = np.ones(len(op.grid.r))
    f[17] = np.nan
    with pytest.raises(SingularResolvent):
        op.solve_shifted(op.factor(mu), f)


def test_overflowing_bound_raises_instead_of_accepting_inf_le_inf():
    # squared norms of 1e300-sized data overflow, so the residual and its
    # bound are both inf; an infinite bound certifies nothing
    op = assemble(make_grid(3, 3.2, 200), QUARTIC_3D, 0)
    vals, vecs = spectral.eigenpairs(op, 1)
    with np.errstate(over="ignore"), pytest.raises(SingularResolvent):
        op.solve_shifted(op.factor(float(vals[0]) - 0.1), 1e300 * vecs[:, 0])


def test_data_at_an_excluded_node_fails_the_residual_check():
    # the N = 1 odd sector excludes the origin, where every u it returns
    # vanishes; f there can only be matched by raising, never by u = 0
    op = assemble(make_grid(1, 4.0, 300), QUARTIC_1D, 1)
    assert op.start == 1 and op.grid.quad_weights[0] > 0.0
    mu = float(eigenvalues(op, 1)[0]) - 0.1
    fac = op.factor(mu)
    f = np.zeros(len(op.grid.r))
    f[0] = 1.0
    with pytest.raises(SingularResolvent):
        op.solve_shifted(fac, f)
    f[1:] = 1.0
    with pytest.raises(SingularResolvent):
        op.solve_shifted(fac, f)
    f[0] = 0.0
    assert op.solve_shifted(fac, f)[0] == 0.0


def test_exactly_singular_shift_raises_singular_resolvent():
    base = assemble(make_grid(3, 1.0, 3), QUARTIC_3D, 0)
    # [[1, 1, 0], [1, 2, 1], [0, 1, 1]] has an exactly zero last pivot at mu = 0
    op = replace(base, diag=np.array([1.0, 2.0, 1.0]), offdiag=np.array([1.0, 1.0]))
    f = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        reference_solve(op, 0.0, f)
    with pytest.raises(SingularResolvent):
        op.factor(0.0)


@pytest.mark.parametrize(
    "space_dim, r_max, pot, sector",
    [(3, 3.2, QUARTIC_3D, 0), (1, 4.0, QUARTIC_1D, 1)],
    ids=["N3-radial", "N1-odd"],
)
def test_unverified_solve_matches_a_dense_solve(space_dim, r_max, pot, sector):
    # the Newton solve of (L - mu - diag(d)) u = f, on the operator's nodes
    op = assemble(make_grid(space_dim, r_max, 120), pot, sector)
    lam = float(eigenvalues(op, 1)[0])
    rng = np.random.default_rng(11)
    s = op.start
    for mu in (lam - 0.1, lam + 0.1):
        d = rng.uniform(-1.0, 1.0, len(op.grid.r))
        f = rng.standard_normal(len(op.grid.r))
        u = op.solve_unverified(mu, d, f)
        dense = np.diag(op.diag - mu - d[s:]) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        x = np.linalg.solve(dense, op.restrict(f))
        assert np.allclose(op.restrict(u), x, rtol=1e-9, atol=1e-9 * np.max(np.abs(x)))
        assert np.all(u[:s] == 0.0)
        # with d = 0 it solves what solve_shifted solves, without the check
        plain = op.solve_unverified(mu, np.zeros_like(d), f * (np.arange(len(f)) >= s))
        assert np.allclose(plain, op.solve_shifted(op.factor(mu), f * (np.arange(len(f)) >= s)))


def test_unverified_solve_of_a_singular_matrix_is_none():
    base = assemble(make_grid(3, 1.0, 3), QUARTIC_3D, 0)
    op = replace(base, diag=np.array([1.0, 2.0, 1.0]), offdiag=np.array([1.0, 1.0]))
    assert op.solve_unverified(0.0, np.zeros(3), np.ones(3)) is None
    assert op.solve_unverified(0.0, np.array([0.0, 0.0, -1.0]), np.ones(3)) is not None


def test_singular_factorization_exits_3_without_output(tmp_path, monkeypatch):
    real = spectral.dgttrf

    def zero_pivot(*args, **kwargs):
        *lu, _ = real(*args, **kwargs)
        return (*lu, 1)

    monkeypatch.setattr(spectral, "dgttrf", zero_pivot)
    cfg = {
        "mode": "linear",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 200},
        "f": {"kind": "phi"},
        "mu_offsets": [-0.1],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ factor counts


@pytest.fixture()
def setup():
    grid = make_grid(3, 3.2, 300)
    spectrum = summarize_spectrum(grid, QUARTIC_3D)
    return spectrum, estimate_c0_delta0(spectrum)


@pytest.fixture()
def factor_calls(monkeypatch):
    calls = []
    real = spectral.dgttrf

    def counting(dl, d, du):
        calls.append(None)
        return real(dl, d, du)

    monkeypatch.setattr(spectral, "dgttrf", counting)
    return calls


def test_semilinear_two_start_factors_twice_per_start(setup, factor_calls):
    # each start factors mu for sweep 1 and again for its closing sweep and
    # image: the Newton steps between drop those factors and solve their
    # Jacobians with gtsv, which makes no gttrf call
    spectrum, w = setup
    rep = two_start_diagnostics(spectrum, w, rational_profile(1.0, 2.0), spectrum.Lambda - 0.1)
    assert rep.certified
    assert len(factor_calls) == 4


def test_system_two_start_factors_each_shift_once_per_start(setup, factor_calls):
    spectrum, w = setup
    nl = rational_profile(1.0, 2.0)
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    p = system_problem(spectrum, m, nl, nl)
    rep = system_two_start(p, w, spectrum.Lambda - m.xi1 - 0.1)
    assert rep.certified
    assert len(factor_calls) == 4


def test_linear_and_monotone_solvers_factor_each_shift_once(setup, factor_calls):
    spectrum, w = setup
    mu = spectrum.Lambda - 0.1
    solve_linear(linear_problem(spectrum, spectrum.phi), mu)
    assert len(factor_calls) == 1
    monotone_solve(spectrum, w, rational_profile(1.0, 2.0), mu)
    assert len(factor_calls) == 3  # mu - M for the sweeps, mu for the residual


_RUN = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
    "grid": {"r_max": 3.2, "n": 200},
    "mu_offsets": [-0.2, -0.05, 0.05, 0.2],
    "output_dir": "factor-count-out",
}
_RATIONAL = {"kind": "rational", "kappa": 1.0, "K": 2.0}
_SYSTEM = {"nonlinearity": _RATIONAL, "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0}}
WINDOW_SAMPLES = 8  # estimate_c0_delta0 factors T - mu at each of its samples


@pytest.mark.parametrize(
    "mode, extra, per_shift",
    [
        ("eigen", {}, 0),
        ("linear", {"f": {"kind": "phi_plus_phi2", "coeff": 0.5}}, 1),
        # a semilinear solve factors mu twice: before and after its Newton steps
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": True}}, 4),
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": False}}, 2),
        ("system", {**_SYSTEM, "solver": {"two_start": True}}, 4),
    ],
    ids=["eigen", "linear", "semilinear-two-start", "semilinear-single", "system-two-start"],
)
def test_run_makes_one_factorization_per_shift_and_solve(tmp_path, factor_calls, mode, extra, per_shift):
    cfg = {**_RUN, "mode": mode, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(factor_calls) == WINDOW_SAMPLES + per_shift * len(cfg["mu_offsets"])


@pytest.fixture()
def solve_calls(monkeypatch):
    calls = []
    real = spectral.DiscreteOperator.solve_shifted

    def counting(self, fac, f):
        calls.append(None)
        return real(self, fac, f)

    monkeypatch.setattr(spectral.DiscreteOperator, "solve_shifted", counting)
    return calls


@pytest.mark.parametrize(
    "mode, extra, solves",
    [
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": True}}, 24),
        ("system", {**_SYSTEM, "solver": {"two_start": True}}, 48),
    ],
    ids=["semilinear-two-start", "system-two-start"],
)
def test_run_pins_the_solves_of_the_mixed_iteration(tmp_path, solve_calls, mode, extra, solves):
    """solve_shifted calls over one two-start run of 4 shifts.

    Before the secant-mixed steps, with undamped Picard steps only, the
    same runs made 112 (semilinear) and 242 (system) calls; a change that
    loses the acceleration fails here.  With secant-mixed steps they made
    56 and 122.  With Newton steps each start makes 3 verified map
    applications (sweep 1, the closing sweep and the image of the limit),
    one solve each for a scalar and two for a system: 24 and 48 in all,
    because the Newton solves are search directions, not verified.
    """
    cfg = {**_RUN, "mode": mode, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(solve_calls) == solves
