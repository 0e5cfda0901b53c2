"""Groundstate-weighted decomposition, X-norm, and resolvent-window tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracles import eigenpairs
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from groundstate import (
    RadialPotential,
    decompose,
    estimate_c0_delta0,
    make_grid,
    power_potential,
    projected_resolvent_norm,
    summarize_spectrum,
    x_norm,
)
from groundstate.errors import MalformedInput
from groundstate.groundstate_space import NORMEST_ITMAX, NORMEST_SEED, ROW_FLOOR, _top_k

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
        z = solve_banded((1, 1), ab, op.scale[:, None] * cols)
        y = z / op.scale[:, None]
        py = y - np.outer(phi, wphi @ y)
        row_sums += np.abs(py[keep] / phi[keep, None]).sum(axis=1)
    return float(row_sums.max())


def _reference_resample(S, S_old, rng):
    n = S.shape[0]
    for j in range(S.shape[1]):
        while np.any(np.abs(np.hstack((S[:, :j], S_old)).T @ S[:, j]) == n):
            S[:, j] = rng.choice((-1.0, 1.0), size=n)


def _reference_block_one_norm(apply_a, apply_at, n, rng, t=2):
    X = np.ones((n, t))
    X[:, 1:] = rng.choice((-1.0, 1.0), size=(n, t - 1))
    _reference_resample(X, np.empty((n, 0)), rng)
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
        if k >= 2 and est <= est_old:
            break
        est_old = est
        if k > NORMEST_ITMAX:
            break
        S_old, S = S, np.where(Y >= 0.0, 1.0, -1.0)
        if np.all(np.abs(S_old.T @ S).max(axis=0) == n):
            break
        _reference_resample(S, S_old, rng)
        h = np.abs(apply_at(S)).max(axis=1)
        if k >= 2 and h.max() == h[ind[best]]:
            break
        ind = np.argsort(-h, kind="stable")[: t + len(visited)]
        seen = np.isin(ind, visited)
        if seen[:t].all():
            break
        ind = np.concatenate((ind[~seen], ind[seen]))
        X = np.zeros((n, t))
        X[ind[:t], np.arange(t)] = 1.0
        visited = np.concatenate((visited, ind[:t][~np.isin(ind[:t], visited)]))
    return est_old


def reference_projected_resolvent_norm(op, phi, quad_weights, mu):
    """The block 1-norm estimate on whole n x 2 blocks, as first written.

    Broadcasts, axis reductions and a full stable argsort per iteration:
    the column-form projected_resolvent_norm must return these bits.
    """
    keep = phi >= ROW_FLOOR * phi.max()
    inv_phi = np.divide(1.0, phi, out=np.zeros_like(phi), where=keep)[:, None]
    phi_col = phi[:, None]
    wphi = quad_weights * phi
    scale = op.scale[:, None]
    dl, d, du, du2, ipiv, _ = dgttrf(op.offdiag, op.diag - mu, op.offdiag)

    def resolve(b, pre, post):
        x, _ = dgttrs(dl, d, du, du2, ipiv, pre * b)
        return np.multiply(post, x, out=np.empty_like(b))  # C-ordered, like b, for BLAS

    def apply_m(Y):
        v = phi_col * Y
        v -= np.outer(phi, wphi @ v)
        v = resolve(v, scale, 1.0 / scale)
        v -= np.outer(phi, wphi @ v)
        return inv_phi * v

    def apply_mt(X):
        v = inv_phi * X
        v -= np.outer(wphi, phi @ v)
        v = resolve(v, 1.0 / scale, scale)
        v -= np.outer(wphi, phi @ v)
        return phi_col * v

    rng = np.random.default_rng(NORMEST_SEED)
    return _reference_block_one_norm(apply_mt, apply_m, len(phi), rng)


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
    np.testing.assert_allclose(gv.values - gv.c1 * phi, 2.0 * phi2, atol=1e-8)


def test_decompose_perp_is_quadrature_orthogonal(ctx):
    grid, _, spectrum, _ = ctx
    phi = spectrum.phi
    rng = np.random.default_rng(11)
    v = rng.standard_normal(grid.n) * phi
    gv = decompose(v, phi, grid.quad_weights)
    assert grid.integrate((gv.values - gv.c1 * phi) * phi) == pytest.approx(0.0, abs=1e-12)


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
        fd = decompose(f, phi, grid.quad_weights)
        f_perp = fd.values - fd.c1 * phi
        u = op.solve_shifted(float(mu), f_perp)
        ud = decompose(u, phi, grid.quad_weights)
        u_perp = ud.values - ud.c1 * phi
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
    fd = decompose(vecs[:, 1], phi, grid.quad_weights)
    f_perp = fd.values - fd.c1 * phi
    ud = decompose(op.solve_shifted(mu, f_perp), phi, grid.quad_weights)
    u_perp = ud.values - ud.c1 * phi
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


def test_window_sample_memory_is_pinned_in_bytes():
    # tracemalloc transient of one projected_resolvent_norm call on the
    # linear_fine bench problem (N = 3, q = 1 + r^4, r_max 3.2, n = 2400),
    # above the memory held before the call, at each of its 8 shifts: at
    # most 176804 bytes, 4.6 n x 2 blocks of doubles (at the elimination:
    # S, the F-ordered right-hand side, gtsv's dm/dl/du, inv_phi and
    # wphi).  While the C-ordered input, its copy, h, the row mask and a
    # standing 1/scale stayed live across the elimination it was 295473
    # bytes (7.7 blocks), and before each block was freed once dead,
    # about 372000 bytes (9.7 blocks)
    grid, op, spectrum, window = window_problem(power_potential(1.0, 4.0), 3, 3.2, 2400)
    phi, weights = spectrum.phi, grid.quad_weights
    tracing = tracemalloc.is_tracing()
    for mu in window.mu_samples:
        projected_resolvent_norm(op, phi, weights, float(mu))  # warm-up at this shift
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            projected_resolvent_norm(op, phi, weights, float(mu))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 178_000


def test_c0_estimate_leaves_global_random_state_alone(ctx):
    _, _, spectrum, _ = ctx
    name, keys, pos, has_gauss, cached = np.random.get_state()
    estimate_c0_delta0(spectrum)
    after = np.random.get_state()
    assert (name, pos, has_gauss, cached) == (after[0], *after[2:])
    assert np.array_equal(keys, after[1])


@settings(max_examples=20)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(8, 2400),
)
def test_column_form_estimate_has_the_reference_bits(c, s, space_dim, n):
    grid, op, spectrum, window = window_problem(power_potential(c, s), space_dim, 4.0, n)
    reference = max(
        reference_projected_resolvent_norm(op, spectrum.phi, grid.quad_weights, float(mu))
        for mu in window.mu_samples
    )
    assert window.c0 == reference


@settings(max_examples=60)
@given(
    h=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, float("inf"), float("nan")]), min_size=1,
               max_size=40),
    extra=st.integers(0, 45),
)
def test_top_k_is_the_head_of_a_stable_argsort(h, extra):
    # few distinct values, so most draws have ties across the cut
    h = np.array(h)
    k = 1 + extra  # k >= len(h) included
    assert np.array_equal(_top_k(h, k), np.argsort(-h, kind="stable")[:k])


def test_top_k_with_ties_at_the_cut():
    h = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0, 0.5, 2.0])
    assert _top_k(h, 4).tolist() == [1, 3, 2, 4]
    assert _top_k(h, 8).tolist() == np.argsort(-h, kind="stable").tolist()
    assert _top_k(h, 20).tolist() == np.argsort(-h, kind="stable").tolist()
