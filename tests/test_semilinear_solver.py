"""Semilinear fixed-point solves, brackets, and uniqueness diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundstate import (
    Nonlinearity,
    RadialPotential,
    apply_T,
    assemble,
    brezis_oswald_check,
    constant_profile,
    estimate_c0_delta0,
    exp_decay_profile,
    make_bracket,
    make_grid,
    monotone_solve,
    power_potential,
    rational_profile,
    solve_semilinear,
    summarize_spectrum,
    two_start_diagnostics,
    validate_nonlinearity,
    window_semilinear,
    x_norm,
)
from groundstate import semilinear_solver
from groundstate.errors import (
    BracketEscape,
    HypothesisViolated,
    MalformedInput,
    MonotonicityBroken,
    NoConvergence,
    SignMixed,
    WindowViolation,
)

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 400)
    spectrum = summarize_spectrum(grid, POT)
    op = assemble(grid, POT, 0)
    window = estimate_c0_delta0(spectrum, op)
    return grid, op, spectrum, window


# ---------------------------------------------------------------- profiles


def test_builtin_profiles_enforce_positive_bounds():
    for bad in (
        lambda: rational_profile(-1.0, 2.0),
        lambda: rational_profile(0.0, 2.0),
        lambda: rational_profile(2.0, 1.0),
        lambda: exp_decay_profile(-0.5, 1.0),
        lambda: exp_decay_profile(1.0, 2.0, s=-1.0),
        lambda: constant_profile(0.0),
    ):
        with pytest.raises(MalformedInput):
            bad()


def test_bare_nonlinearity_admits_nonpositive_kappa():
    nl = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 1.0),
        kappa=-1.0,
        k_upper=2.0,
        strictly_decreasing_ratio=False,
    )
    assert nl.kappa == -1.0
    with pytest.raises(MalformedInput):
        Nonlinearity(profile=lambda r, u: u, kappa=3.0, k_upper=2.0)
    with pytest.raises(MalformedInput):
        Nonlinearity(profile=lambda r, u: u, kappa=-2.0, k_upper=-1.0)


def test_exp_decay_profile_is_even_in_u():
    nl = exp_decay_profile(1.0, 3.0, s=0.7)
    r = np.linspace(0.1, 2.0, 5)
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    g = nl(r, u)
    np.testing.assert_allclose(g, nl(r, -u))
    np.testing.assert_allclose(g, 1.0 + 2.0 * np.exp(-0.7 * np.abs(u)))


def test_validate_nonlinearity_catches_lying_box():
    r = np.linspace(0.1, 3.0, 20)
    liar = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 2.0),
        kappa=0.5,
        k_upper=1.0,
        strictly_decreasing_ratio=False,
    )
    with pytest.raises(HypothesisViolated):
        validate_nonlinearity(liar, r)
    honest = rational_profile(1.0, 2.0)
    validate_nonlinearity(honest, r)  # should not raise


def test_validate_nonlinearity_catches_flat_ratio():
    r = np.linspace(0.1, 3.0, 20)
    # g = clip(u, kappa, K) has g/u constant on [kappa, K]
    plateau = Nonlinearity(
        profile=lambda r, u: np.clip(np.asarray(u, dtype=float), 0.5, 2.0),
        kappa=0.5,
        k_upper=2.0,
        strictly_decreasing_ratio=True,
    )
    with pytest.raises(HypothesisViolated):
        validate_nonlinearity(plateau, r)
    # the same profile with the hypothesis not claimed passes
    relaxed = Nonlinearity(
        profile=plateau.profile, kappa=0.5, k_upper=2.0, strictly_decreasing_ratio=False
    )
    validate_nonlinearity(relaxed, r)
    with pytest.raises(MalformedInput):
        validate_nonlinearity(relaxed, r, u_lo=1.0, u_hi=0.5)


# ------------------------------------------------------ brackets and window


def test_make_bracket_orientation(ctx):
    _, _, spectrum, _ = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    nl = rational_profile(1.0, 2.0)
    mp = make_bracket(spectrum, nl, lam - 0.5)
    assert mp.kind == "MP"
    np.testing.assert_allclose(mp.lower, 2.0 * phi)
    np.testing.assert_allclose(mp.upper, 4.0 * phi)
    amp = make_bracket(spectrum, nl, lam + 0.5)
    assert amp.kind == "AMP"
    np.testing.assert_allclose(amp.lower, -4.0 * phi)
    np.testing.assert_allclose(amp.upper, -2.0 * phi)
    assert np.all(amp.lower <= amp.upper)
    with pytest.raises(WindowViolation):
        make_bracket(spectrum, nl, lam)


def test_window_semilinear_rule(ctx):
    _, _, _, w = ctx
    nl = rational_profile(1.0, 2.0)
    assert window_semilinear(nl, w) == pytest.approx(
        min(w.delta0, 1.0 / (2.0 * w.c0 * 2.0))
    )
    one_sided = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 1.0),
        kappa=-1.0,
        k_upper=2.0,
        strictly_decreasing_ratio=False,
    )
    assert window_semilinear(one_sided, w) == w.delta0


def test_apply_T_from_zero_hits_upper_endpoint(ctx):
    grid, op, spectrum, _ = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    nl = rational_profile(1.0, 2.0)
    v = apply_T(op, spectrum, nl, op.factor(lam - 1.0), np.zeros(grid.n))
    np.testing.assert_allclose(v, 2.0 * phi, atol=1e-8)


# ------------------------------------------------------------------ solves


def test_mp_solve_is_certified(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    rep = solve_semilinear(op, spectrum, w, nl, mu)
    assert rep.branch == "MP"
    assert rep.violations == 0
    assert rep.iterations < 500
    assert rep.residual_x <= 1e-7
    assert rep.certified
    assert rep.bound_lo == pytest.approx(10.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(20.0, rel=1e-9)
    assert rep.min_ratio >= 10.0 * (1.0 - 1e-6)
    assert rep.max_ratio <= 20.0 * (1.0 + 1e-6)
    assert rep.xnorm_ok
    assert rep.window == pytest.approx(window_semilinear(nl, w))


def test_amp_solve_is_certified(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda + 0.05
    rep = solve_semilinear(op, spectrum, w, nl, mu)
    assert rep.branch == "AMP"
    assert rep.violations == 0
    assert rep.certified
    assert rep.bound_lo == pytest.approx(-40.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(-20.0, rel=1e-9)
    assert rep.max_ratio <= -20.0 * (1.0 - 1e-6)
    assert rep.min_ratio >= -40.0 * (1.0 + 1e-6)


def test_solve_rejects_mu_outside_window(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    window = window_semilinear(nl, w)
    with pytest.raises(WindowViolation):
        solve_semilinear(op, spectrum, w, nl, spectrum.Lambda - (window + 0.1))
    with pytest.raises(WindowViolation):
        solve_semilinear(op, spectrum, w, nl, spectrum.Lambda)


def test_solve_validates_controls(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    with pytest.raises(MalformedInput):
        solve_semilinear(op, spectrum, w, nl, mu, damping=0.0)
    with pytest.raises(MalformedInput):
        solve_semilinear(op, spectrum, w, nl, mu, damping=1.5)
    with pytest.raises(MalformedInput):
        solve_semilinear(op, spectrum, w, nl, mu, start="middle")
    with pytest.raises(MalformedInput):
        solve_semilinear(op, spectrum, w, nl, mu, start="custom")


def test_lying_profile_escapes_bracket(ctx):
    _, op, spectrum, w = ctx
    liar = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 50.0),
        kappa=1.0,
        k_upper=2.0,
        strictly_decreasing_ratio=False,
    )
    with pytest.raises(BracketEscape):
        solve_semilinear(op, spectrum, w, liar, spectrum.Lambda - 0.1)


def test_no_convergence_carries_trace(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(NoConvergence) as exc:
        solve_semilinear(op, spectrum, w, nl, spectrum.Lambda - 0.1, max_iter=2)
    assert exc.value.iterations == 2
    assert len(exc.value.trace) == 2
    assert all(step > 0 for step in exc.value.trace)


# -------------------------------------------------------------- step rule


@pytest.fixture()
def fixed_points(monkeypatch):
    """Every FixedPoint that clipped_fixed_point returns, in call order."""
    seen = []
    real = semilinear_solver.clipped_fixed_point

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(semilinear_solver, "clipped_fixed_point", recording)
    return seen


def steep_profile(spectrum, mu):
    """g = 1 + 1/(1 + exp(8 (v - 1.3))) of the ratio v = (Lambda - mu) u/phi.

    From a multiple of phi, T maps v to g(v) exactly, and g' ~ -1.9 at the
    fixed point v* ~ 1.37: the plain Picard iterate moves away from it
    into a two-cycle, while the secant-mixed step finds it.
    """
    scale = (spectrum.Lambda - mu) / spectrum.phi.values
    return Nonlinearity(
        profile=lambda r, u: 1.0 + 1.0 / (1.0 + np.exp(8.0 * (u * scale - 1.3))),
        kappa=1.0,
        k_upper=2.0,
        strictly_decreasing_ratio=False,
        name="steep",
    )


@pytest.mark.parametrize("offset", [-0.1, 0.1], ids=["MP", "AMP"])
def test_mixed_steps_solve_a_map_picard_only_cycles_on(ctx, fixed_points, offset):
    _, op, spectrum, w = ctx
    mu = spectrum.Lambda + offset
    nl = steep_profile(spectrum, mu)
    rep = two_start_diagnostics(op, spectrum, w, nl, mu)
    assert rep.certified and rep.violations == 0
    assert rep.uniqueness.two_start_gap <= 1e-7
    assert len(fixed_points) == 2
    for fp in fixed_points:
        assert fp.undamped_sweeps == fp.iterations <= 20  # no switch to damping
    # damping = 1 neither mixes nor switches, and the plain Picard iterate only cycles
    with pytest.raises(NoConvergence):
        solve_semilinear(op, spectrum, w, nl, mu, damping=1.0, max_iter=200)


@pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["scalar", "system"])
def test_residual_growing_under_mixing_switches_to_damping(shape):
    # T maps the ratio v = u/phi to 1 - tanh(4 v): slope ~ -2.6 at the fixed
    # point, so plain Picard steps cycle.  From u = 0 sweep 1 takes the plain
    # step and sweeps 2 and 3 mixed ones, each at a lower residual; the
    # residual of the last mixed iterate is not lower, so sweep 4 switches
    # to the damped steps, which converge.
    phi = np.linspace(0.5, 1.0, 5)
    lower, upper = -2.0 * phi * np.ones(shape), 2.0 * phi * np.ones(shape)

    def sweep(u):
        return phi * (1.0 - np.tanh(4.0 * u / phi)), None

    def solve(damping, max_iter):
        return semilinear_solver.clipped_fixed_point(
            sweep, lower, upper, np.zeros(shape), phi, BracketEscape, damping, max_iter, 1e-10
        )

    with pytest.raises(NoConvergence) as exc:
        solve(0.5, 4)
    plain, mixed, mixed_again, damped = exc.value.trace
    assert plain > mixed > mixed_again
    # sweep 4 records the damped step, half its Picard residual
    assert damped >= 0.5 * mixed_again
    fp = solve(0.5, 200)
    assert fp.undamped_sweeps == 3 < fp.iterations
    v = fp.u / phi
    assert np.max(np.abs(v - (1.0 - np.tanh(4.0 * v)))) <= 1e-9
    assert fp.violations == 0
    with pytest.raises(NoConvergence):
        solve(1.0, 200)


def test_contracting_map_never_switches(ctx, fixed_points):
    _, op, spectrum, w = ctx
    rep = solve_semilinear(op, spectrum, w, rational_profile(1.0, 2.0), spectrum.Lambda - 0.1)
    assert rep.certified
    assert fixed_points[0].undamped_sweeps == fixed_points[0].iterations == rep.iterations


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 300),
    kappa=st.floats(0.2, 2.0),
    spread=st.floats(1.0, 4.0),
    frac=st.floats(0.05, 0.95),
)
def test_default_solve_is_certified_in_window(c, s, space_dim, n, kappa, spread, frac):
    grid = make_grid(space_dim, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(c, s))
    op = spectrum.op
    w = estimate_c0_delta0(spectrum, op)
    nl = rational_profile(kappa, kappa * spread)
    half = frac * window_semilinear(nl, w)
    phi = spectrum.phi.values

    mu = spectrum.Lambda - half
    rep = two_start_diagnostics(op, spectrum, w, nl, mu)
    assert rep.certified
    assert rep.uniqueness.two_start_gap <= 1e-7
    mono = monotone_solve(op, spectrum, w, nl, mu)
    assert x_norm(rep.solution.values - mono.solution.values, phi) <= 1e-8 * mono.solution.x_norm

    # On the AMP side the bracket is not invariant (no maximum principle):
    # mostly for N <= 2 the first image T(bracket end) can leave it at more
    # than ESCAPE_FRACTION of the nodes.  That sweep precedes any step rule.
    try:
        rep = two_start_diagnostics(op, spectrum, w, nl, spectrum.Lambda + half)
    except BracketEscape as exc:
        assert str(exc).endswith("on sweep 1")
    else:
        assert rep.certified
        assert rep.uniqueness.two_start_gap <= 1e-7


# ---------------------------------------------------------------- monotone


def test_monotone_solve_matches_damped(ctx):
    _, op, spectrum, w = ctx
    from groundstate import x_norm

    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    mono = monotone_solve(op, spectrum, w, nl, mu)
    damped = solve_semilinear(op, spectrum, w, nl, mu, tol_x=1e-10)
    phi = spectrum.phi.values
    assert mono.uniqueness is not None
    assert mono.uniqueness.two_start_gap <= 1e-8
    assert mono.solution_upper is not None
    # ordered limits: lower limit sits below upper limit nodewise
    diff = mono.solution_upper.values - mono.solution.values
    assert float(diff.min()) >= -1e-10 * float(np.max(np.abs(mono.solution.values)))
    assert x_norm(mono.solution.values - damped.solution.values, phi) <= 1e-8
    assert mono.certified


def test_monotone_without_shift_breaks(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(MonotonicityBroken):
        monotone_solve(op, spectrum, w, nl, spectrum.Lambda - 0.1, shift=0.0)
    with pytest.raises(MalformedInput):
        monotone_solve(op, spectrum, w, nl, spectrum.Lambda - 0.1, shift=-1.0)


def test_monotone_needs_mu_below_lambda(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(WindowViolation):
        monotone_solve(op, spectrum, w, nl, spectrum.Lambda + 0.05)


def test_monotone_no_convergence_reports_its_budget(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(NoConvergence) as exc:
        monotone_solve(op, spectrum, w, nl, spectrum.Lambda - 0.1, max_iter=1)
    assert exc.value.iterations == 1


# ------------------------------------------------------------- uniqueness


def test_brezis_oswald_exact_zero_cases(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    assert brezis_oswald_check(op, phi, phi) == (0.0, 0.0)
    assert brezis_oswald_check(op, phi, 2.0 * phi) == (0.0, 0.0)


def test_brezis_oswald_rejects_sign_mixed(ctx):
    _, op, spectrum, _ = ctx
    from groundstate import eigenpairs

    phi = spectrum.phi.values
    _, vecs = eigenpairs(op, 2)
    with pytest.raises(SignMixed):
        brezis_oswald_check(op, phi, vecs[:, 1])
    with pytest.raises(SignMixed):
        brezis_oswald_check(op, phi, -phi)


def test_brezis_oswald_identity_gap_refines():
    # the discrete identity gap on a smooth non-proportional pair shrinks
    # like h^2 under exact grid halving
    gaps = []
    for n in (399, 799):
        grid = make_grid(3, 3.2, n)
        spectrum = summarize_spectrum(grid, POT)
        op = assemble(grid, POT, 0)
        phi = spectrum.phi.values
        u = phi * (1.0 + 0.1 / (1.0 + grid.r**2))
        t_lhs, gap = brezis_oswald_check(op, u, phi)
        assert t_lhs > 0.0
        gaps.append(abs(gap))
    assert gaps[0] / gaps[1] >= 3.0


def test_two_start_diagnostics_fields(ctx):
    _, op, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    rep = two_start_diagnostics(op, spectrum, w, nl, spectrum.Lambda - 0.1)
    assert rep.uniqueness is not None
    assert rep.uniqueness.two_start_gap <= 1e-8
    assert abs(rep.uniqueness.brezis_oswald_residual) <= 1e-10
    assert rep.solution_upper is not None
    assert rep.certified


# ----------------------------------------------------- one-sided regime


def one_sided_profile():
    return Nonlinearity(
        profile=lambda r, u: -0.5
        + 1.5 * np.exp(-((np.asarray(u, dtype=float) / 10.0) ** 2)),
        kappa=-0.5,
        k_upper=1.5,
        strictly_decreasing_ratio=False,
        name="one_sided",
    )


def test_one_sided_mp_solve_reports_without_certificate(ctx):
    _, op, spectrum, w = ctx
    nl = one_sided_profile()
    mu = spectrum.Lambda - 0.5
    rep = solve_semilinear(op, spectrum, w, nl, mu)
    assert rep.branch == "MP"
    # the bracket edges are reported, the certificate is not claimed
    assert rep.bound_lo == pytest.approx(-1.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(3.0, rel=1e-9)
    assert not rep.certified
    assert rep.window == pytest.approx(w.delta0)
    # the solution itself is still a genuine fixed point
    assert rep.residual_x <= 1e-7


def test_one_sided_amp_branch_is_refused(ctx):
    _, op, spectrum, w = ctx
    nl = one_sided_profile()
    with pytest.raises(WindowViolation, match="kappa > 0"):
        solve_semilinear(op, spectrum, w, nl, spectrum.Lambda + 0.1)


def test_one_sided_monotone_solve_agrees(ctx):
    _, op, spectrum, w = ctx
    from groundstate import x_norm

    nl = one_sided_profile()
    mu = spectrum.Lambda - 0.5
    mono = monotone_solve(op, spectrum, w, nl, mu)
    damped = solve_semilinear(op, spectrum, w, nl, mu, tol_x=1e-10)
    assert mono.uniqueness.two_start_gap <= 1e-8
    assert not mono.certified
    assert (
        x_norm(mono.solution.values - damped.solution.values, spectrum.phi.values)
        <= 1e-8
    )
