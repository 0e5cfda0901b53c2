"""Groundstate-weighted decomposition, X-norm, and resolvent-window tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from groundstate import (
    RadialPotential,
    decompose,
    eigenpairs,
    estimate_c0_delta0,
    make_grid,
    power_potential,
    projected_resolvent_norm,
    summarize_spectrum,
    x_norm,
)
from groundstate.errors import MalformedInput
from groundstate.groundstate_space import ROW_FLOOR

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")
OSC = RadialPotential(lambda r: r**2, name="oscillator")


def dense_projected_resolvent_norm(op, phi, quad_weights, mu, block=512):
    """Dense max row sum of |D_phi^-1 Pi (L-mu)^-1 Pi D_phi| over kept rows.

    Reference for the block 1-norm estimate: forms the columns of the
    matrix by banded solves against the columns of Pi D_phi, a block of
    columns at a time so memory stays O(n * block).
    """
    n = len(phi)
    wphi = quad_weights * phi
    keep = phi >= ROW_FLOOR * phi.max()
    ab = np.zeros((3, op.dim))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - mu
    ab[2, :-1] = op.offdiag
    row_sums = np.zeros(int(keep.sum()))
    for j0 in range(0, n, block):
        j = np.arange(j0, min(j0 + block, n))
        cols = -np.outer(phi, wphi[j] * phi[j])
        cols[j, j - j0] += phi[j]
        z = solve_banded((1, 1), ab, op.scale[:, None] * cols[op.start :])
        y = np.zeros((n, len(j)))
        y[op.start :] = z / op.scale[:, None]
        py = y - np.outer(phi, wphi @ y)
        row_sums += np.abs(py[keep] / phi[keep, None]).sum(axis=1)
    return float(row_sums.max())


def window_problem(pot, space_dim, r_max, n):
    grid = make_grid(space_dim, r_max, n)
    spectrum = summarize_spectrum(grid, pot)
    op = spectrum.op
    return grid, op, spectrum, estimate_c0_delta0(spectrum)


def assert_estimate_matches_oracle(grid, op, spectrum, window):
    phi = spectrum.phi
    for mu in window.mu_samples:
        est = projected_resolvent_norm(op, phi, grid.quad_weights, float(mu))
        exact = dense_projected_resolvent_norm(op, phi, grid.quad_weights, float(mu))
        assert est == pytest.approx(exact, rel=1e-10, abs=0.0)


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 300)
    spectrum = summarize_spectrum(grid, POT)
    op = spectrum.op
    window = estimate_c0_delta0(spectrum)
    return grid, op, spectrum, window


def test_decompose_recovers_components(ctx):
    grid, op, spectrum, _ = ctx
    phi = spectrum.phi
    _, vecs = eigenpairs(op, 2)
    phi2 = vecs[:, 1]
    gv = decompose(3.0 * phi + 2.0 * phi2, phi, grid.quad_weights)
    assert gv.c1 == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(gv.perp, 2.0 * phi2, atol=1e-8)
    # values = c1*phi + perp reassembles the input
    np.testing.assert_allclose(gv.values, gv.c1 * phi + gv.perp, atol=1e-12)


def test_decompose_perp_is_quadrature_orthogonal(ctx):
    grid, _, spectrum, _ = ctx
    phi = spectrum.phi
    rng = np.random.default_rng(11)
    v = rng.standard_normal(grid.n) * phi
    gv = decompose(v, phi, grid.quad_weights)
    assert grid.integrate(gv.perp * phi) == pytest.approx(0.0, abs=1e-12)


def test_x_norm_axioms(ctx):
    grid, _, spectrum, _ = ctx
    phi = spectrum.phi
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.n) * phi
    v = rng.standard_normal(grid.n) * phi
    assert x_norm(phi, phi) == pytest.approx(1.0)
    assert x_norm(-3.0 * u, phi) == pytest.approx(3.0 * x_norm(u, phi), rel=1e-12)
    assert x_norm(u + v, phi) <= x_norm(u, phi) + x_norm(v, phi) + 1e-12
    assert x_norm(np.zeros(grid.n), phi) == 0.0


def test_x_norm_is_weighted_sup(ctx):
    grid, _, spectrum, _ = ctx
    phi = spectrum.phi
    v = 2.5 * phi
    v[grid.n // 2] = 7.0 * phi[grid.n // 2]
    assert x_norm(v, phi) == pytest.approx(7.0)


def test_window_estimate_shape(ctx):
    _, _, spectrum, w = ctx
    assert w.delta0 == pytest.approx(0.5 * spectrum.gap, rel=1e-12)
    assert len(w.mu_samples) == 8
    assert np.all(np.diff(w.mu_samples) > 0)
    assert w.mu_samples[0] == pytest.approx(spectrum.Lambda - w.delta0)
    assert w.mu_samples[-1] == pytest.approx(spectrum.Lambda + w.delta0)
    assert w.c0 > 0.0


def test_c0_dominates_radial_floor(ctx):
    _, _, spectrum, w = ctx
    # the phi2 direction realizes 1/(lambda2_radial - Lambda - delta0)
    floor = 1.0 / (spectrum.radial_eigs[1] - spectrum.Lambda - w.delta0)
    assert w.c0 >= floor


def test_c0_bounds_realized_projected_resolvent(ctx):
    grid, op, spectrum, w = ctx
    phi = spectrum.phi
    rng = np.random.default_rng(23)
    for mu in w.mu_samples:
        f = rng.standard_normal(grid.n) * phi
        f_perp = decompose(f, phi, grid.quad_weights).perp
        u = op.solve_shifted(op.factor(float(mu)), f_perp)
        u_perp = decompose(u, phi, grid.quad_weights).perp
        ratio = x_norm(u_perp, phi) / x_norm(f_perp, phi)
        assert ratio <= w.c0 * (1.0 + 1e-9)


def test_projected_resolvent_norm_is_max_over_data(ctx):
    grid, op, spectrum, w = ctx
    phi = spectrum.phi
    mu = spectrum.Lambda - w.delta0
    norm = projected_resolvent_norm(op, phi, grid.quad_weights, mu)
    # the operator norm is attained by some sign pattern; any specific
    # f_perp realizes at most that
    _, vecs = eigenpairs(op, 2)
    f_perp = decompose(vecs[:, 1], phi, grid.quad_weights).perp
    u_perp = decompose(op.solve_shifted(op.factor(mu), f_perp), phi, grid.quad_weights).perp
    assert x_norm(u_perp, phi) / x_norm(f_perp, phi) <= norm * (1.0 + 1e-9)
    assert norm <= w.c0 * (1.0 + 1e-12)


def test_estimate_rejects_bad_margin(ctx):
    _, _, spectrum, _ = ctx
    with pytest.raises(MalformedInput):
        estimate_c0_delta0(spectrum, margin=0.0)
    with pytest.raises(MalformedInput):
        estimate_c0_delta0(spectrum, margin=1.0)


@pytest.mark.parametrize(
    "pot, space_dim, r_max, n",
    [
        (OSC, 1, 8.0, 2000),  # the harmonic wells of acceptance criterion 01
        (OSC, 3, 8.0, 2000),
        (POT, 3, 3.2, 400),
        (POT, 3, 3.2, 800),
    ],
)
def test_c0_estimate_matches_dense_oracle(pot, space_dim, r_max, n):
    assert_estimate_matches_oracle(*window_problem(pot, space_dim, r_max, n))


@settings(max_examples=10)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 400),
)
def test_c0_estimate_on_admissible_power_wells(c, s, space_dim, n):
    grid, op, spectrum, window = window_problem(power_potential(c, s), space_dim, 4.0, n)
    assert_estimate_matches_oracle(grid, op, spectrum, window)
    assert window.c0 >= 1.0 / (spectrum.radial_eigs[1] - spectrum.Lambda - window.delta0)


def test_c0_estimate_is_bit_identical_on_rerun(ctx):
    _, _, spectrum, window = ctx
    assert estimate_c0_delta0(spectrum).c0 == window.c0


def test_c0_estimate_leaves_global_random_state_alone(ctx):
    _, _, spectrum, _ = ctx
    name, keys, pos, has_gauss, cached = np.random.get_state()
    estimate_c0_delta0(spectrum)
    after = np.random.get_state()
    assert (name, pos, has_gauss, cached) == (after[0], *after[2:])
    assert np.array_equal(keys, after[1])
