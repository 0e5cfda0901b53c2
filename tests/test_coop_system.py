"""Cooperative 2x2 systems: algebra, rectangles, solves, cross-checks."""

import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from brezis_oswald_reference import coupled_cross_terms
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_oracles import block_solve

from groundstate import (
    RadialPotential,
    analyze_matrix,
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
    two_start_diagnostics,
    window_system,
    x_norm,
)
from groundstate.errors import (
    BracketEscape,
    MalformedInput,
    NoConvergence,
    NotCooperative,
    SignMixed,
    SingularResolvent,
    WindowViolation,
)
from groundstate import coop_system, spectral
from groundstate.groundstate_space import x_distance
from groundstate.semilinear_solver import Nonlinearity

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 300)
    spectrum = summarize_spectrum(grid, POT)
    op = spectrum.op
    window = estimate_c0_delta0(spectrum)
    return grid, op, spectrum, window


def make_problem(ctx, nl1, nl2, offset):
    _, _, spectrum, w = ctx
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    lam_star = spectrum.Lambda - m.xi1
    p = system_problem(spectrum, m, nl1, nl2)
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


def test_analyze_matrix_keeps_tiny_coupling_exact_on_both_sides(ctx):
    # xi1 - a (for a > d) and a - xi2 (for d > a) are ~bc/|a - d|; formed as
    # (sqrt(disc) - |a - d|)/2 they cancel, so this pair and its mirror
    # (a <-> d) must both carry them to full precision and pass the vector
    # groundstate identity
    _, _, spectrum, _ = ctx
    with localcontext() as dec:
        dec.prec = 50
        small = float((Decimal(1) + Decimal("4e-12")).sqrt() / 2 - Decimal("0.5"))
    nl = rational_profile(1.0, 2.0)
    m = analyze_matrix(1.0, 1.0, 1e-12, 0.0)
    mirror = analyze_matrix(0.0, 1.0, 1e-12, 1.0)
    assert m.y[1] == pytest.approx(small, rel=1e-14, abs=0.0)
    assert -mirror.p[1, 1] == pytest.approx(small, rel=1e-14, abs=0.0)
    for mat in (m, mirror):
        np.testing.assert_allclose(mat.p_inv @ mat.p, np.eye(2), atol=1e-15)
        system_problem(spectrum, mat, nl, nl)


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
    phi = spectrum.phi
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
    _, _, spectrum, _ = ctx
    phi = spectrum.phi
    p, _, mu = make_problem(ctx, rational_profile(1.0, 2.0), rational_profile(1.0, 2.0), -0.1)
    near = rectangle(p, mu)
    assert near.kind == "MP"
    # component i lies in [lo_i, hi_i] * phi, node by node
    np.testing.assert_allclose(near.lower, np.outer([5.0, 10.0], phi), rtol=1e-12)
    np.testing.assert_allclose(near.upper, np.outer([20.0, 40.0], phi), rtol=1e-12)
    assert (near.bound_lo, near.bound_hi) == pytest.approx((5.0, 40.0), rel=1e-12)
    far = rectangle(p, mu=p.lambda_star - 0.2)
    np.testing.assert_allclose(near.lower, 2.0 * far.lower, rtol=1e-12)
    np.testing.assert_allclose(near.upper, 2.0 * far.upper, rtol=1e-12)
    amp = rectangle(p, mu=p.lambda_star + 0.1)
    assert amp.kind == "AMP"
    assert np.all(amp.lower <= amp.upper) and np.all(amp.upper < 0.0)
    assert amp.bound_lo <= amp.bound_hi < 0.0
    with pytest.raises(WindowViolation):
        rectangle(p, mu=p.lambda_star)


def test_system_problem_rejects_inconsistent_pieces(ctx):
    # a summary whose phi is not an eigenvector of its op fails the
    # vector groundstate identity
    grid, _, spectrum, _ = ctx
    other = summarize_spectrum(grid, RadialPotential(lambda r: r**2, name="osc"))
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(SingularResolvent):
        system_problem(replace(spectrum, phi=other.phi), m, nl, nl)


# ------------------------------------------------------------------ solves


def test_constant_profiles_give_eigenvector_multiple(ctx):
    _, _, spectrum, w = ctx
    phi = spectrum.phi
    p, _, mu = make_problem(ctx, constant_profile(1.0), constant_profile(2.0), -0.1)
    rep = solve_system(p, w, mu)
    assert rep.branch == "MP"
    assert rep.violations == 0
    assert rep.certified
    # F = Y*phi exactly, so U = Y*phi/0.1 and the second mode is silent
    assert x_norm(rep.solution[0].values - 10.0 * phi, phi) <= 1e-6
    assert x_norm(rep.solution[1].values - 20.0 * phi, phi) <= 1e-6
    _, v2 = p.matrix.decouple(rep.solution[0].values, rep.solution[1].values)
    assert x_norm(v2, phi) <= 1e-9
    assert rep.v2_xnorm <= rep.v2_bound
    assert rep.solution[0].c1 == pytest.approx(10.0, rel=1e-7)
    assert rep.solution[1].c1 == pytest.approx(20.0, rel=1e-7)


def test_rational_system_both_branches(ctx):
    _, _, spectrum, w = ctx
    phi = spectrum.phi
    nl = rational_profile(1.0, 2.0)

    p_lo, _, mu_lo = make_problem(ctx, nl, nl, -0.1)
    lo = solve_system(p_lo, w, mu_lo)
    assert lo.branch == "MP"
    assert lo.certified
    assert lo.iterations < 500
    edge_lo = (rectangle(p_lo, mu_lo).lower / phi).min(axis=1)  # lo_i of each component
    ratios = np.array([v.values for v in lo.solution]) / phi
    assert np.all(ratios.min(axis=1) >= edge_lo * (1.0 - 1e-6))

    p_hi, _, mu_hi = make_problem(ctx, nl, nl, +0.05)
    hi = solve_system(p_hi, w, mu_hi)
    assert hi.branch == "AMP"
    assert hi.certified
    edge_hi = (rectangle(p_hi, mu_hi).upper / phi).max(axis=1)  # hi_i of each component
    ratios = np.array([v.values for v in hi.solution]) / phi
    assert np.all(ratios.max(axis=1) <= edge_hi * (1.0 - 1e-6))

    # the dominant diagonalized component carries the blow-up
    for rep, p, mu in ((lo, p_lo, mu_lo), (hi, p_hi, mu_hi)):
        dist = abs(p.lambda_star - mu)
        kappa_prime, k_prime = inherited_bounds(p.matrix, p.kappa, p.k_upper)
        floor = kappa_prime / dist - 2.0 * w.c0 * k_prime
        v1, v2 = p.matrix.decouple(rep.solution[0].values, rep.solution[1].values)
        assert x_norm(v1, phi) >= floor > 0.0
        assert x_norm(v2, phi) <= rep.v2_bound


@pytest.mark.parametrize("offset", [-0.1, 0.05], ids=["MP", "AMP"])
def test_row_whose_limit_image_leaves_the_rectangle_is_uncertified(ctx, monkeypatch, offset):
    # the sweep's image T(U) is put 1% past the upper corner at one node of
    # u1: the clipped limit lies in the rectangle, but T moves it out
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    p, _, mu = make_problem(ctx, nl, nl, offset)
    assert solve_system(p, w, mu).certified
    upper = rectangle(p, mu).upper[0, 150]
    real = coop_system._system_sweep
    calls = []

    def lying(*args):
        calls.append(None)
        t, aux = real(*args)
        t[0, 150] = upper + 0.01 * abs(upper)
        return t, aux

    monkeypatch.setattr(coop_system, "_system_sweep", lying)
    single = solve_system(p, w, mu)
    sweeps = len(calls) - 1  # every map application but the image of the limit is a sweep
    assert single.violations >= sweeps  # each verified sweep counts node 150
    for rep in (single, system_two_start(p, w, mu)):
        assert not rep.certified
        assert rep.violations == single.violations
        assert rep.solution[0].values[150] <= upper


@pytest.mark.parametrize("offset_sign", [-1.0, 1.0], ids=["MP", "AMP"])
def test_zero_width_rectangle_rows_at_n1_stay_certified(offset_sign):
    # a = d and b = c give y1 = y2, and a constant g gives kappa = K: the
    # rectangle has zero width, and the image's rounding sits outside it
    # (on MP by 1.3e-12 of the local edge, past the 1e-12 BRACKET_SLACK),
    # far below the CERT_SLACK that the sweeps and the certificate admit
    spectrum = summarize_spectrum(make_grid(1, 4.0, 41), power_potential(1.0, 3.0))
    w = estimate_c0_delta0(spectrum)
    nl = constant_profile(1.0)
    p = system_problem(spectrum, analyze_matrix(0.0, 0.125, 0.125, 0.0), nl, nl)
    mu = p.lambda_star + offset_sign * 0.0625 * window_system(p, w)
    rep = system_two_start(p, w, mu)
    assert rep.branch == ("MP" if offset_sign < 0 else "AMP")
    assert rep.certified


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
        profile=lambda u: np.full_like(np.asarray(u, dtype=float), 50.0),
        kappa=1.0,
        k_upper=2.0,
        derivative=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    p, w, mu = make_problem(ctx, liar, liar, -0.1)
    with pytest.raises(BracketEscape):
        solve_system(p, w, mu)


@pytest.mark.parametrize("offset", [-0.1, 0.05], ids=["MP", "AMP"])
def test_refused_newton_steps_fall_back_to_damped_sweeps(ctx, monkeypatch, offset):
    # with every tridiagonal Newton solve refused (a zero pivot), the first
    # Newton step switches the solve to damped sweeps, which reach the limit
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, offset)
    phi = p.spectrum.phi
    want = solve_system(p, w, mu)
    seen = []
    real = coop_system.clipped_fixed_point

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(coop_system, "clipped_fixed_point", recording)
    monkeypatch.setattr(spectral.DiscreteOperator, "solve_unverified", lambda *args: None)
    got = solve_system(p, w, mu)
    (fp,) = seen
    assert fp.undamped_sweeps == 1 < fp.iterations == got.iterations
    assert got.certified and got.violations == 0
    for u, v in zip(got.solution, want.solution):
        assert x_norm(u.values - v.values, phi) <= 1e-8 * v.x_norm


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
    phi = spectrum.phi
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    mu = spectrum.Lambda - m.xi1 - 0.1
    f1, f2 = phi, 3.0 * phi
    u1, u2 = block_solve(op, m, mu, f1, f2)

    g1, g2 = m.decouple(f1, f2)
    v1 = op.solve_shifted(mu + m.xi1, g1)
    v2 = op.solve_shifted(mu + m.xi2, g2)
    np.testing.assert_allclose(u1, m.p[0, 0] * v1 + m.p[0, 1] * v2, atol=1e-8)
    np.testing.assert_allclose(u2, m.p[1, 0] * v1 + m.p[1, 1] * v2, atol=1e-8)


def test_block_solve_has_small_residual(ctx):
    grid, op, spectrum, _ = ctx
    phi = spectrum.phi
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
    phi = spectrum.phi
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    pair = (phi, 2.0 * phi)
    assert coupled_uniqueness_check(op, pair, pair, m) == 0.0
    cross, cross_raw = coupled_cross_terms(op, pair, pair)
    assert cross == 0.0
    assert cross_raw == 0.0

    scaled = (3.0 * phi, 6.0 * phi)
    coupled_uniqueness_check(op, pair, scaled, m)  # raises when T1 < -1e-8
    cross, cross_raw = coupled_cross_terms(op, pair, scaled)
    assert cross_raw == pytest.approx(0.0, abs=1e-12)
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_coupled_uniqueness_rejects_sign_mixed(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    with pytest.raises(SignMixed):
        coupled_uniqueness_check(op, (phi, -2.0 * phi), (phi, 2.0 * phi), m)


def test_coupled_uniqueness_sqrt_identity(ctx):
    grid, op, spectrum, _ = ctx
    phi = spectrum.phi
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
    t1 = coupled_uniqueness_check(op, u_pair, v_pair, m)
    cross, cross_raw = coupled_cross_terms(op, u_pair, v_pair)
    # the raw coupling form and its closed-square rewrite agree exactly
    scale = max(1.0, abs(cross))
    assert abs(cross_raw - cross) <= 1e-10 * scale
    assert cross <= 1e-12
    assert t1 >= -1e-8


def test_system_two_start_diagnostics(ctx):
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, -0.1)
    rep = system_two_start(p, w, mu)
    assert rep.uniqueness is not None
    assert rep.uniqueness.two_start_gap <= 1e-7
    assert abs(rep.uniqueness.brezis_oswald_residual) <= 1e-6
    assert rep.certified


@pytest.mark.parametrize("offset", [-0.1, 0.1], ids=["MP", "AMP"])
def test_system_two_start_row_holds_the_form_of_its_two_limits(ctx, offset):
    # the bo_residual column is the coupled form T1 of the two limits
    nl = rational_profile(1.0, 2.0)
    p, w, mu = make_problem(ctx, nl, nl, offset)
    rep = system_two_start(p, w, mu)
    lo = solve_system(p, w, mu, start="lower")
    hi = solve_system(p, w, mu, start="upper")
    t1 = coupled_uniqueness_check(
        p.spectrum.op,
        tuple(v.values for v in lo.solution),
        tuple(v.values for v in hi.solution),
        p.matrix,
    )
    assert rep.uniqueness.brezis_oswald_residual == t1


@pytest.mark.parametrize("offset", [-0.1, 0.05], ids=["MP", "AMP"])
@pytest.mark.parametrize("mode", ["semilinear", "system"])
def test_two_start_report_reduces_over_every_component(ctx, mode, offset):
    # scalar and system rows share one report: its ratio extremes are floats
    # over all components, it holds both limits, and the gap is the largest
    # X-distance between matching components of the two limits
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    if mode == "system":
        p, w, mu = make_problem(ctx, nl, nl, offset)
        rep = system_two_start(p, w, mu)
    else:
        rep = two_start_diagnostics(spectrum, w, nl, spectrum.Lambda + offset)
    phi = spectrum.phi
    assert len(rep.solution) == len(rep.solution_upper) == (2 if mode == "system" else 1)
    ratios = np.array([v.values for v in rep.solution]) / phi
    assert type(rep.min_ratio) is float and rep.min_ratio == ratios.min()
    assert type(rep.max_ratio) is float and rep.max_ratio == ratios.max()
    pairs = zip(rep.solution, rep.solution_upper)
    assert rep.uniqueness.two_start_gap == max(x_distance(b.values, a.values, phi) for a, b in pairs)


def test_system_two_start_memory_is_pinned_in_bytes():
    # tracemalloc transient of one system_two_start call on the system_sweep
    # bench problem (N = 3, q = 1 + r^4, r_max 3.2, n = 400, rational
    # kappa = 1, K = 2, A = (0, 1; 4, 0)), above the memory held before the
    # call, at Lambda* +- 0.2 and +- 0.8 of the window: 64520-65080 bytes,
    # 20.2-20.3 n-vectors of doubles.  While the first start's report kept
    # the decoupled pair v1, v2 through the second start, it was
    # 71144-71704 bytes (22.2-22.4 n-vectors); while each sweep kept the
    # last aux alive, formed X-norm steps and the certificate check with
    # two to five temporaries, recoupled with np.vstack and held the
    # decoupled right-hand sides through both solves, it was about
    # 88300-91300 bytes (27.6-28.5 n-vectors)
    spectrum = summarize_spectrum(make_grid(3, 3.2, 400), power_potential(1.0, 4.0))
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(1.0, 2.0)
    p = system_problem(spectrum, analyze_matrix(0.0, 1.0, 4.0, 0.0), nl, nl)
    half = window_system(p, w)
    tracing = tracemalloc.is_tracing()
    for frac in (-0.8, -0.2, 0.2, 0.8):
        mu = p.lambda_star + frac * half
        system_two_start(p, w, mu)  # warm-up at this shift
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            system_two_start(p, w, mu)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 70_000


@settings(max_examples=40)
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
    w = estimate_c0_delta0(spectrum)
    m = analyze_matrix(a, b, c, d)
    nl = rational_profile(kappa, kappa * spread)
    p = system_problem(spectrum, m, nl, nl)
    mu = p.lambda_star - frac * window_system(p, w)
    rep = system_two_start(p, w, mu)
    assert rep.branch == "MP" and rep.certified
    assert rep.uniqueness.two_start_gap <= 1e-7

    phi = spectrum.phi
    u1, u2 = rep.solution[0].values, rep.solution[1].values
    b1, b2 = block_solve(op, m, mu, phi * nl(u1), phi * nl(u2))
    gap = max(x_norm(b1 - u1, phi), x_norm(b2 - u2, phi))
    assert gap <= 1e-8 * max(v.x_norm for v in rep.solution)


@settings(max_examples=40)
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
    side=st.sampled_from([-1.0, 1.0]),
)
# Two AMP draws whose plain Picard sweeps escape on sweep 2, not sweep 1
# (the first at its upper corner, the second at both): the AMP rectangle
# is not invariant.
@example(
    q0=2.5687, s=5.3240, space_dim=5, n=108, a=-1.3224, b=0.7581, c=0.1665, d=0.8586,
    kappa=1.8146, spread=3.7185, frac=0.4707, side=1.0,
).xfail(raises=AssertionError, reason="FOUND 60, first draw; ROADMAP item 1")
@example(
    q0=1.2057, s=5.0345, space_dim=1, n=161, a=1.18e-239, b=2.2093, c=0.1, d=-2.3252,
    kappa=1.5014, spread=3.8698, frac=0.4607, side=1.0,
).xfail(raises=AssertionError, reason="FOUND 60, second draw; ROADMAP item 1")
def test_system_newton_limit_matches_the_picard_limit(
    q0, s, space_dim, n, a, b, c, d, kappa, spread, frac, side
):
    # The block Newton steps are unverified search directions: from each
    # corner the limit must be the one plain Picard sweeps (damping = 1)
    # reach, with the same certificate, or both raise the same sweep-1
    # BracketEscape (sweep 1 is the same Picard sweep in both solves).
    grid = make_grid(space_dim, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(q0, s))
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(kappa, kappa * spread)
    p = system_problem(spectrum, analyze_matrix(a, b, c, d), nl, nl)
    mu = p.lambda_star + side * frac * window_system(p, w)
    phi = spectrum.phi
    # Picard sweeps stopped at a step below the default tol_x = 1e-9 can be
    # more than 1e-10*||u_i||_X from their limit (as in the scalar test).
    # The reference stops below 1e-12 of the rectangle's smallest |edge|,
    # a lower bound on both ||u_i||_X, but not below 1e-14 of its largest:
    # rounding leaves the coupled sweep's X-norm steps at a few 1e-15 of
    # the larger component.  The edges share one sign, so the smallest
    # and the largest |edge| are those of bound_lo and bound_hi.
    rect = rectangle(p, mu)
    edges = sorted([abs(rect.bound_lo), abs(rect.bound_hi)])
    ref_tol = max(1e-12 * edges[0], 1e-14 * edges[1])
    for start in ("lower", "upper"):
        try:
            picard = solve_system(p, w, mu, damping=1.0, start=start, tol_x=ref_tol)
        except BracketEscape as exc:
            assert str(exc).endswith("on sweep 1")
            with pytest.raises(BracketEscape, match=re.escape(str(exc))):
                solve_system(p, w, mu, start=start)
            continue
        rep = solve_system(p, w, mu, start=start)
        for got, want in zip(rep.solution, picard.solution):
            assert x_norm(got.values - want.values, phi) <= 1e-10 * want.x_norm
        assert rep.certified == picard.certified
