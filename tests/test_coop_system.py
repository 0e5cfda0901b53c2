"""Cooperative 2x2 systems: algebra, rectangles, solves, cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundstate import (
    RadialPotential,
    analyze_matrix,
    assemble,
    block_solve,
    constant_profile,
    coupled_uniqueness_check,
    estimate_c0_delta0,
    inherited_bounds,
    make_grid,
    power_potential,
    rational_profile,
    rectangle,
    solve_system,
    summarize_spectrum,
    system_problem,
    system_two_start,
    window_system,
    x_norm,
)
from groundstate.errors import (
    MalformedInput,
    NoConvergence,
    NotCooperative,
    RectangleEscape,
    SignMixed,
    SingularResolvent,
    WindowViolation,
)
from groundstate.semilinear_solver import Nonlinearity

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 300)
    spectrum = summarize_spectrum(grid, POT)
    op = assemble(grid, POT, 0)
    window = estimate_c0_delta0(spectrum, op)
    return grid, op, spectrum, window


def make_problem(ctx, nl1, nl2, offset):
    _, op, spectrum, w = ctx
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    lam_star = spectrum.Lambda - m.xi1
    p = system_problem(op, spectrum, m, nl1, nl2)
    return p, w, lam_star + offset


# ----------------------------------------------------------------- algebra


def test_analyze_matrix_closed_forms():
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    assert m.xi1 == pytest.approx(2.0, abs=1e-12)
    assert m.xi2 == pytest.approx(-2.0, abs=1e-12)
    np.testing.assert_allclose(m.y, [1.0, 2.0], atol=1e-12)

    m2 = analyze_matrix(1.0, 2.0, 3.0, 2.0)
    assert m2.xi1 == pytest.approx(4.0, abs=1e-12)
    assert m2.xi2 == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(m2.y, [2.0, 3.0], atol=1e-12)

    m3 = analyze_matrix(5.0, 1.0, 1.0, 5.0)
    assert m3.xi1 == pytest.approx(6.0, abs=1e-12)
    assert m3.xi2 == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(m3.y, [1.0, 1.0], atol=1e-12)


def test_analyze_matrix_identities_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a, d = rng.uniform(-3, 3, size=2)
        b, c = rng.uniform(0.1, 3, size=2)
        m = analyze_matrix(a, b, c, d)
        arr = m.as_array
        np.testing.assert_allclose(m.p_inv @ m.p, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            m.p_inv @ arr @ m.p, np.diag([m.xi1, m.xi2]), atol=1e-10
        )
        np.testing.assert_allclose(arr @ m.y, m.xi1 * m.y, atol=1e-10)
        assert m.xi1 > m.xi2
        assert np.all(m.y > 0)


def test_analyze_matrix_rejects_noncooperative():
    for a, b, c, d in ((0.0, -1.0, 4.0, 0.0), (0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 1.0)):
        with pytest.raises(NotCooperative):
            analyze_matrix(a, b, c, d)


def test_inherited_bounds_values():
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    kp, kup = inherited_bounds(m, 1.0, 2.0)
    assert kp == pytest.approx(0.75, abs=1e-12)
    assert kup == pytest.approx(1.5, abs=1e-12)


def test_decouple_cases(ctx):
    _, _, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    g1, g2 = m.decouple(phi, phi)
    np.testing.assert_allclose(g1, 0.75 * phi, atol=1e-12)
    np.testing.assert_allclose(g2, 0.25 * phi, atol=1e-12)

    # data parallel to the dominant eigenvector diagonalizes to (phi, 0)
    g1, g2 = m.decouple(m.y[0] * phi, m.y[1] * phi)
    np.testing.assert_allclose(g1, phi, atol=1e-12)
    np.testing.assert_allclose(g2, np.zeros_like(phi), atol=1e-12)


# ------------------------------------------------------- windows, rectangles


def test_window_system_is_min_of_four(ctx):
    _, _, spectrum, w = ctx
    p, _, _ = make_problem(ctx, rational_profile(1.0, 2.0), rational_profile(1.0, 2.0), -0.1)
    kp, kup = inherited_bounds(p.matrix, 1.0, 2.0)
    expected = min(
        w.delta0,
        kp / (2.0 * w.c0 * kup),
        0.5 * (p.matrix.xi1 - p.matrix.xi2),
        spectrum.gap,
    )
    assert window_system(p, w) == pytest.approx(expected, rel=1e-12)


def test_rectangle_scales_inversely_with_distance(ctx):
    p, _, mu = make_problem(ctx, rational_profile(1.0, 2.0), rational_profile(1.0, 2.0), -0.1)
    near = rectangle(p, mu)
    assert near.kind == "MP"
    np.testing.assert_allclose(near.lo, [5.0, 10.0], rtol=1e-12)
    np.testing.assert_allclose(near.hi, [20.0, 40.0], rtol=1e-12)
    far = rectangle(p, mu=p.lambda_star - 0.2)
    np.testing.assert_allclose(near.lo, 2.0 * np.asarray(far.lo), rtol=1e-12)
    np.testing.assert_allclose(near.hi, 2.0 * np.asarray(far.hi), rtol=1e-12)
    amp = rectangle(p, mu=p.lambda_star + 0.1)
    assert amp.kind == "AMP"
    assert np.all(amp.hi < 0.0)
    with pytest.raises(WindowViolation):
        rectangle(p, mu=p.lambda_star)


def test_system_problem_rejects_inconsistent_pieces(ctx):
    grid, op, _, _ = ctx
    other = summarize_spectrum(grid, RadialPotential(lambda r: r**2, name="osc"))
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(SingularResolvent):
        system_problem(op, other, m, nl, nl)


# ------------------------------------------------------------------ solves


def test_constant_profiles_give_eigenvector_multiple(ctx):
    _, op, spectrum, w = ctx
    phi = spectrum.phi.values
    p, _, mu = make_problem(ctx, constant_profile(1.0), constant_profile(2.0), -0.1)
    rep = solve_system(p, w, mu)
    assert rep.branch == "MP"
    assert rep.violations == 0
    assert rep.certified and rep.membership_ok
    # F = Y*phi exactly, so U = Y*phi/0.1 and the second mode is silent
    assert x_norm(rep.u1.values - 10.0 * phi, phi) <= 1e-6
    assert x_norm(rep.u2.values - 20.0 * phi, phi) <= 1e-6
    assert x_norm(rep.v2, phi) <= 1e-9
    assert rep.v2_ok
    assert rep.u1.c1 == pytest.approx(10.0, rel=1e-7)
    assert rep.u2.c1 == pytest.approx(20.0, rel=1e-7)


def test_rational_system_both_branches(ctx):
    _, op, spectrum, w = ctx
    phi = spectrum.phi.values
    nl = rational_profile(1.0, 2.0)

    p_lo, _, mu_lo = make_problem(ctx, nl, nl, -0.1)
    lo = solve_system(p_lo, w, mu_lo)
    assert lo.branch == "MP"
    assert lo.certified and lo.membership_ok and lo.v2_ok
    assert lo.iterations < 500
    assert np.all(lo.min_ratio >= np.asarray(lo.rectangle.lo) * (1.0 - 1e-6))

    p_hi, _, mu_hi = make_problem(ctx, nl, nl, +0.05)
    hi = solve_system(p_hi, w, mu_hi)
    assert hi.branch == "AMP"
    assert hi.certified and hi.membership_ok and hi.v2_ok
    assert np.all(hi.max_ratio <= np.asarray(hi.rectangle.hi) * (1.0 - 1e-6))

    # the dominant diagonalized component carries the blow-up
    for rep, p, mu in ((lo, p_lo, mu_lo), (hi, p_hi, mu_hi)):
        dist = abs(p.lambda_star - mu)
        floor = rep.kappa_prime / dist - 2.0 * w.c0 * rep.k_prime
        assert x_norm(rep.v1, phi) >= floor > 0.0
        assert x_norm(rep.v2, phi) <= rep.v2_bound


def test_solve_system_rejects_bad_controls(ctx):
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, -0.1)
    with pytest.raises(MalformedInput):
        solve_system(p, w, mu, damping=0.0)
    with pytest.raises(MalformedInput):
        solve_system(p, w, mu, start="corner")
    p_out, _, mu_out = make_problem(ctx, nl, nl, -2.5)
    with pytest.raises(WindowViolation):
        solve_system(p_out, w, mu_out)


def test_lying_profile_escapes_rectangle(ctx):
    liar = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 50.0),
        kappa=1.0,
        k_upper=2.0,
        strictly_decreasing_ratio=False,
    )
    p, w, mu = make_problem(ctx, liar, liar, -0.1)
    with pytest.raises(RectangleEscape):
        solve_system(p, w, mu)


def test_system_no_convergence_carries_trace(ctx):
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, -0.1)
    with pytest.raises(NoConvergence) as exc:
        solve_system(p, w, mu, max_iter=2)
    assert exc.value.iterations == 2
    assert len(exc.value.trace) == 2
    assert all(step > 0 for step in exc.value.trace)


# -------------------------------------------------------------- cross-checks


def test_block_solve_matches_diagonalization(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    mu = spectrum.Lambda - m.xi1 - 0.1
    f1, f2 = phi, 3.0 * phi
    u1, u2 = block_solve(op, m, mu, f1, f2)

    g1, g2 = m.decouple(f1, f2)
    v1 = op.solve_shifted(op.factor(mu + m.xi1), g1)
    v2 = op.solve_shifted(op.factor(mu + m.xi2), g2)
    np.testing.assert_allclose(u1, m.p[0, 0] * v1 + m.p[0, 1] * v2, atol=1e-8)
    np.testing.assert_allclose(u2, m.p[1, 0] * v1 + m.p[1, 1] * v2, atol=1e-8)


def test_block_solve_has_small_residual(ctx):
    grid, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(1.0, 2.0, 3.0, 2.0)
    mu = spectrum.Lambda - m.xi1 - 0.3
    rng = np.random.default_rng(3)
    f1 = phi * (1.0 + 0.2 * rng.random(grid.n))
    f2 = phi * (1.0 + 0.2 * rng.random(grid.n))
    u1, u2 = block_solve(op, m, mu, f1, f2)
    r1 = op.matvec(u1) - mu * u1 - m.a * u1 - m.b * u2 - f1
    r2 = op.matvec(u2) - mu * u2 - m.c * u1 - m.d * u2 - f2
    scale = max(grid.norm(f1), grid.norm(f2))
    assert grid.norm(r1) <= 1e-9 * scale
    assert grid.norm(r2) <= 1e-9 * scale


# --------------------------------------------------------------- uniqueness


def test_coupled_uniqueness_exact_zero_cases(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    pair = (phi, 2.0 * phi)
    same = coupled_uniqueness_check(op, pair, pair, m)
    assert same.t1 == 0.0
    assert same.cross_term == 0.0
    assert same.cross_term_raw == 0.0

    scaled = coupled_uniqueness_check(op, pair, (3.0 * phi, 6.0 * phi), m)
    assert scaled.cross_term_raw == pytest.approx(0.0, abs=1e-12)
    assert scaled.cross_term == pytest.approx(0.0, abs=1e-12)


def test_coupled_uniqueness_rejects_sign_mixed(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    with pytest.raises(SignMixed):
        coupled_uniqueness_check(op, (phi, -2.0 * phi), (phi, 2.0 * phi), m)


def test_coupled_uniqueness_sqrt_identity(ctx):
    grid, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    rng = np.random.default_rng(17)
    u_pair = (
        phi * (1.0 + 0.1 * rng.random(grid.n)),
        2.0 * phi * (1.0 + 0.1 * rng.random(grid.n)),
    )
    v_pair = (
        phi * (1.0 + 0.1 * rng.random(grid.n)),
        2.0 * phi * (1.0 + 0.1 * rng.random(grid.n)),
    )
    cu = coupled_uniqueness_check(op, u_pair, v_pair, m)
    # the raw coupling form and its closed-square rewrite agree exactly
    scale = max(1.0, abs(cu.cross_term))
    assert abs(cu.cross_term_raw - cu.cross_term) <= 1e-10 * scale
    assert cu.cross_term <= 1e-12
    assert cu.t1 >= -1e-8


def test_system_two_start_diagnostics(ctx):
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, -0.1)
    rep = system_two_start(p, w, mu)
    assert rep.uniqueness is not None
    assert rep.uniqueness.two_start_gap <= 1e-7
    assert abs(rep.uniqueness.brezis_oswald_residual) <= 1e-6
    assert rep.certified


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q0=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 300),
    a=st.floats(-3.0, 3.0),
    b=st.floats(0.1, 4.0),
    c=st.floats(0.1, 4.0),
    d=st.floats(-3.0, 3.0),
    kappa=st.floats(0.2, 2.0),
    spread=st.floats(1.0, 4.0),
    frac=st.floats(0.05, 0.95),
)
def test_mp_system_limit_solves_the_coupled_problem(
    q0, s, space_dim, n, a, b, c, d, kappa, spread, frac
):
    # the block solve never diagonalizes, so it checks the mixed iteration's limit
    grid = make_grid(space_dim, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(q0, s))
    op = spectrum.op
    w = estimate_c0_delta0(spectrum, op)
    m = analyze_matrix(a, b, c, d)
    nl = rational_profile(kappa, kappa * spread)
    p = system_problem(op, spectrum, m, nl, nl)
    mu = p.lambda_star - frac * window_system(p, w)
    try:
        rep = system_two_start(p, w, mu)
    except RectangleEscape as exc:
        # Known fault: with kappa = K and y1 = y2 the rectangle has zero
        # width, and the rounding of the first image exceeds the 1e-12
        # relative slack.  No other draw may escape.
        assert spread == 1.0 and math.isclose(m.y[0], m.y[1], rel_tol=1e-9)
        assert str(exc).endswith("on sweep 1")
        return
    assert rep.branch == "MP" and rep.certified
    assert rep.uniqueness.two_start_gap <= 1e-7

    phi, r = spectrum.phi.values, grid.r
    u1, u2 = rep.u1.values, rep.u2.values
    b1, b2 = block_solve(op, m, mu, phi * nl(r, u1), phi * nl(r, u2))
    gap = max(x_norm(b1 - u1, phi), x_norm(b2 - u2, phi))
    assert gap <= 1e-8 * max(rep.u1.x_norm, rep.u2.x_norm)
