"""Semilinear fixed-point solves, brackets, and uniqueness diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest
from brezis_oswald_reference import brezis_oswald_identity
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_oracles import (
    MonotonicityBroken,
    eigenpairs,
    monotone_solve,
    reference_outside_count,
    reference_x_norm,
)

from groundstate import (
    Bracket,
    Nonlinearity,
    RadialPotential,
    analyze_matrix,
    apply_T,
    brezis_oswald_check,
    constant_profile,
    estimate_c0_delta0,
    exp_decay_profile,
    make_bracket,
    make_grid,
    power_potential,
    rational_profile,
    solve_semilinear,
    solve_system,
    summarize_spectrum,
    system_problem,
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
    NoConvergence,
    SignMixed,
    WindowViolation,
)
from groundstate.groundstate_space import CERT_SLACK, x_distance

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 400)
    spectrum = summarize_spectrum(grid, POT)
    op = spectrum.op
    window = estimate_c0_delta0(spectrum)
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
        derivative=lambda r, u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    assert nl.kappa == -1.0
    identity = dict(profile=lambda r, u: u, derivative=lambda r, u: np.ones_like(u))
    with pytest.raises(MalformedInput):
        Nonlinearity(kappa=3.0, k_upper=2.0, **identity)
    with pytest.raises(MalformedInput):
        Nonlinearity(kappa=-2.0, k_upper=-1.0, **identity)


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
        derivative=lambda r, u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    with pytest.raises(HypothesisViolated):
        validate_nonlinearity(liar, r)
    honest = rational_profile(1.0, 2.0)
    validate_nonlinearity(honest, r)  # should not raise


def clip_slope(r, u):
    """g_u of g = clip(u, 0.5, 2): 1 inside (0.5, 2), 0 outside."""
    u = np.asarray(u, dtype=float)
    return ((u > 0.5) & (u < 2.0)).astype(float)


def test_validate_nonlinearity_catches_flat_ratio():
    r = np.linspace(0.1, 3.0, 20)
    # g = clip(u, kappa, K) has g/u constant on [kappa, K]
    plateau = Nonlinearity(
        profile=lambda r, u: np.clip(np.asarray(u, dtype=float), 0.5, 2.0),
        kappa=0.5,
        k_upper=2.0,
        derivative=clip_slope,
    )
    with pytest.raises(HypothesisViolated):
        validate_nonlinearity(plateau, r)


def test_validate_nonlinearity_evaluates_each_lattice_point_once():
    r = np.linspace(0.1, 3.0, 20)
    nl = rational_profile(1.0, 2.0)
    calls = []

    def counting(r, u):
        calls.append(u[0])
        return nl.profile(r, u)

    validate_nonlinearity(Nonlinearity(counting, 1.0, 2.0, nl.derivative), r)
    # 64 positive points, their negatives and zero; the ratio check reuses them
    assert len(calls) == 129
    assert len(set(calls)) == 129


def test_validate_nonlinearity_reports_a_box_failure_before_a_ratio_failure():
    r = np.linspace(0.1, 3.0, 20)
    # g/u is flat between 0.5 and 2 (an early ratio failure), and g leaves
    # [kappa, K] = [0.5, 2] above u = 100, later on the lattice
    both = Nonlinearity(
        profile=lambda r, u: np.clip(np.asarray(u, dtype=float), 0.5, 2.0)
        + (np.asarray(u, dtype=float) > 100.0),
        kappa=0.5,
        k_upper=2.0,
        derivative=clip_slope,
    )
    with pytest.raises(HypothesisViolated, match="leaves"):
        validate_nonlinearity(both, r)


@pytest.mark.parametrize(
    "nl",
    [
        constant_profile(1.3),
        rational_profile(0.5, 3.0),
        exp_decay_profile(1.0, 2.0, s=0.7),
        exp_decay_profile(0.2, 5.0, s=40.0),
    ],
    ids=["constant", "rational", "exp_decay", "exp_decay-steep"],
)
def test_validate_nonlinearity_accepts_the_cli_derivatives(nl):
    r = np.linspace(0.1, 3.0, 20)
    assert nl.derivative is not None
    validate_nonlinearity(nl, r)


@pytest.mark.parametrize("factor", [-1.0, 2.0, 0.5], ids=["sign", "double", "half"])
@pytest.mark.parametrize(
    "base",
    [rational_profile(1.0, 2.0), exp_decay_profile(1.0, 3.0, s=0.7)],
    ids=["rational", "exp_decay"],
)
def test_validate_nonlinearity_catches_a_wrong_derivative(base, factor):
    r = np.linspace(0.1, 3.0, 20)
    wrong = Nonlinearity(
        profile=base.profile,
        kappa=base.kappa,
        k_upper=base.k_upper,
        derivative=lambda r, u: factor * base.derivative(r, u),
    )
    with pytest.raises(HypothesisViolated, match="g_u disagrees"):
        validate_nonlinearity(wrong, r)


# ------------------------------------------------------ brackets and window


def test_make_bracket_orientation(ctx):
    _, _, spectrum, _ = ctx
    lam, phi = spectrum.Lambda, spectrum.phi
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
    # the ratio edges are the smaller and the larger of kappa/(Lambda - mu) and K/(Lambda - mu)
    assert (mp.bound_lo, mp.bound_hi) == pytest.approx((2.0, 4.0))
    assert (amp.bound_lo, amp.bound_hi) == pytest.approx((-4.0, -2.0))
    assert amp.end("lower") is amp.lower and amp.end("upper") is amp.upper
    with pytest.raises(MalformedInput):
        amp.end("middle")
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
        derivative=lambda r, u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    assert window_semilinear(one_sided, w) == w.delta0


def test_apply_T_from_zero_hits_upper_endpoint(ctx):
    grid, op, spectrum, _ = ctx
    lam, phi = spectrum.Lambda, spectrum.phi
    nl = rational_profile(1.0, 2.0)
    v = apply_T(spectrum, nl, lam - 1.0, np.zeros(grid.n))
    np.testing.assert_allclose(v, 2.0 * phi, atol=1e-8)


# ------------------------------------------------------------------ solves


def test_mp_solve_is_certified(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    rep = solve_semilinear(spectrum, w, nl, mu)
    assert rep.branch == "MP"
    assert rep.violations == 0
    assert rep.iterations < 500
    assert rep.residual_x <= 1e-7
    assert rep.certified
    assert rep.bound_lo == pytest.approx(10.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(20.0, rel=1e-9)
    assert rep.min_ratio >= 10.0 * (1.0 - 1e-6)
    assert rep.max_ratio <= 20.0 * (1.0 + 1e-6)
    assert rep.solution.x_norm <= rep.xnorm_bound


def test_amp_solve_is_certified(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda + 0.05
    rep = solve_semilinear(spectrum, w, nl, mu)
    assert rep.branch == "AMP"
    assert rep.violations == 0
    assert rep.certified
    assert rep.bound_lo == pytest.approx(-40.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(-20.0, rel=1e-9)
    assert rep.max_ratio <= -20.0 * (1.0 - 1e-6)
    assert rep.min_ratio >= -40.0 * (1.0 + 1e-6)


def test_solve_rejects_mu_outside_window(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    window = window_semilinear(nl, w)
    with pytest.raises(WindowViolation):
        solve_semilinear(spectrum, w, nl, spectrum.Lambda - (window + 0.1))
    with pytest.raises(WindowViolation):
        solve_semilinear(spectrum, w, nl, spectrum.Lambda)


def test_solve_validates_controls(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    with pytest.raises(MalformedInput):
        solve_semilinear(spectrum, w, nl, mu, damping=0.0)
    with pytest.raises(MalformedInput):
        solve_semilinear(spectrum, w, nl, mu, damping=1.5)
    with pytest.raises(MalformedInput):
        solve_semilinear(spectrum, w, nl, mu, start="middle")
    with pytest.raises(MalformedInput):
        solve_semilinear(spectrum, w, nl, mu, start="custom")


def test_lying_profile_escapes_bracket(ctx):
    _, _, spectrum, w = ctx
    liar = Nonlinearity(
        profile=lambda r, u: np.full_like(np.asarray(u, dtype=float), 50.0),
        kappa=1.0,
        k_upper=2.0,
        derivative=lambda r, u: np.zeros_like(np.asarray(u, dtype=float)),
    )
    with pytest.raises(BracketEscape):
        solve_semilinear(spectrum, w, liar, spectrum.Lambda - 0.1)


def test_no_convergence_carries_trace(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(NoConvergence) as exc:
        solve_semilinear(spectrum, w, nl, spectrum.Lambda - 0.1, max_iter=2)
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
    """g = 1 + p, p = 1/(1 + exp(8 (v - 1.3))), of the ratio v = (Lambda - mu) u/phi.

    From a multiple of phi, T maps v to g(v) exactly, and g' ~ -1.9 at the
    fixed point v* ~ 1.37: the plain Picard iterate moves away from it
    into a two-cycle, while the Newton step (g_u = -8 p (1 - p) dv/du)
    finds it.
    """
    scale = (spectrum.Lambda - mu) / spectrum.phi

    def logistic(u):
        return 1.0 / (1.0 + np.exp(8.0 * (u * scale - 1.3)))

    return Nonlinearity(
        profile=lambda r, u: 1.0 + logistic(u),
        kappa=1.0,
        k_upper=2.0,
        derivative=lambda r, u: -8.0 * scale * logistic(u) * (1.0 - logistic(u)),
    )


@pytest.mark.parametrize("offset", [-0.1, 0.1], ids=["MP", "AMP"])
def test_mixed_steps_solve_a_map_picard_only_cycles_on(ctx, fixed_points, offset):
    _, _, spectrum, w = ctx
    mu = spectrum.Lambda + offset
    nl = steep_profile(spectrum, mu)
    rep = two_start_diagnostics(spectrum, w, nl, mu)
    assert rep.certified and rep.violations == 0
    assert rep.uniqueness.two_start_gap <= 1e-7
    assert len(fixed_points) == 2
    for fp in fixed_points:
        assert fp.undamped_sweeps == fp.iterations <= 20  # no switch to damping
    # damping = 1 neither mixes nor switches, and the plain Picard iterate only cycles
    with pytest.raises(NoConvergence):
        solve_semilinear(spectrum, w, nl, mu, damping=1.0, max_iter=200)


def ratio_box(phi, shape):
    """The Bracket -2 phi <= u <= 2 phi, with the iterate's shape (a scalar or a 2 x n system)."""
    ones = np.ones(shape)
    return Bracket(
        lower=-2.0 * phi * ones, upper=2.0 * phi * ones, bound_lo=-2.0, bound_hi=2.0, kind="MP"
    )


@pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["scalar", "system"])
def test_residual_growing_under_mixing_switches_to_damping(shape):
    # T maps the ratio v = u/phi to 1 - tanh(4 v): slope ~ -2.6 at the fixed
    # point, so plain Picard steps cycle.  The Newton callable returns the
    # Picard image, so from u = 0 its steps fall only while the iterate
    # closes in on the two-cycle, and barely: the first Newton step falls,
    # the second does not halve the step of sweep 1 and is replaced by a
    # damped sweep, and the damped sweeps converge.
    phi = np.linspace(0.5, 1.0, 5)
    box = ratio_box(phi, shape)

    def sweep(u):
        return phi * (1.0 - np.tanh(4.0 * u / phi)), None

    def solve(damping, max_iter):
        return semilinear_solver.clipped_fixed_point(
            sweep, lambda u: sweep(u)[0], box, np.zeros(shape), phi, damping, max_iter, 1e-10
        )

    fp = solve(0.5, 200)
    switch = fp.undamped_sweeps
    assert switch == 2 < fp.iterations
    with pytest.raises(NoConvergence) as exc:
        solve(0.5, switch + 1)
    *falling, damped = exc.value.trace
    assert all(a > b for a, b in zip(falling, falling[1:]))
    # the damped step is half the Picard residual, which the refused Newton
    # step (the Picard image) would have taken: above NEWTON_CONTRACTION of
    # the step before the last
    assert damped > 0.5 * semilinear_solver.NEWTON_CONTRACTION * falling[-2]
    v = fp.u / phi
    assert np.max(np.abs(v - (1.0 - np.tanh(4.0 * v)))) <= 1e-9
    assert fp.violations == 0 and fp.outside_at_limit == 0
    with pytest.raises(NoConvergence):
        solve(1.0, 200)


@pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["scalar", "system"])
def test_stagnating_newton_steps_hand_over_to_damped_sweeps(shape):
    # T maps the ratio v = u/phi to 1 - v/2, a contraction, and the Newton
    # callable moves only 5% of the way to the Picard image, so each of its
    # steps is 0.925 of the last: strictly falling, but taking some 300
    # steps to reach tol_x.  Sweep 1 takes the step 1 and the first two
    # Newton steps 0.025 and 0.023; the third does not halve the first
    # Newton step, and the damped sweeps (rate 1/4) take over.
    phi = np.linspace(0.5, 1.0, 5)

    def sweep(u):
        return phi - 0.5 * u, None

    fp = semilinear_solver.clipped_fixed_point(
        sweep, lambda u: u + 0.05 * (sweep(u)[0] - u), ratio_box(phi, shape),
        np.zeros(shape), phi, 0.5, 100, 1e-10,
    )
    assert fp.undamped_sweeps == 3
    assert fp.iterations <= 25
    assert np.max(np.abs(fp.u / phi - 2.0 / 3.0)) <= 1e-9
    assert fp.violations == 0 and fp.outside_at_limit == 0


@pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["scalar", "system"])
def test_limit_whose_image_leaves_the_set_is_counted(shape):
    # The map is constant, phi except 1% past upper at node 2 of each
    # component (under ESCAPE_FRACTION of the nodes).  The Newton callable
    # returns that image, so the clipped iterate reaches a fixed point of
    # clip(T) that T moves on the Newton step after sweep 1, and the
    # closing sweep 3 accepts it.
    phi = np.linspace(0.5, 1.0, 5)
    box = ratio_box(phi, shape)
    lower, upper = box.lower, box.upper
    t = phi * np.ones(shape)
    t[..., 2] = 1.01 * upper[..., 2]
    fp = semilinear_solver.clipped_fixed_point(
        lambda u: (t, None), lambda u: t.copy(), box, np.zeros(shape), phi, 0.5, 50, 1e-10
    )
    per_sweep = t.size // 5
    assert fp.iterations == 3
    assert fp.outside_at_limit == per_sweep
    assert fp.violations == 2 * per_sweep  # sweeps 1 and 3 count the node
    assert fp.residual_x == pytest.approx(0.01 * 2.0)
    assert np.all(fp.u == np.clip(t, lower, upper))


def image_past_upper(monkeypatch, upper, node):
    """Make apply_T return T(u) with node set 1% of |upper| past upper; returns its calls."""
    real = semilinear_solver.apply_T
    calls = []

    def lying(*args):
        calls.append(None)
        t = real(*args)
        t[node] = upper[node] + 0.01 * abs(upper[node])
        return t

    monkeypatch.setattr(semilinear_solver, "apply_T", lying)
    return calls


@pytest.mark.parametrize("offset", [-0.1, 0.05], ids=["MP", "AMP"])
def test_row_whose_limit_image_leaves_the_bracket_is_uncertified(ctx, monkeypatch, offset):
    # certified is decided on T(u): a clip(T) limit that T moves past the
    # bracket fails, although the clipped limit's own ratio lies inside it
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda + offset
    bracket = make_bracket(spectrum, nl, mu)
    assert solve_semilinear(spectrum, w, nl, mu).certified
    calls = image_past_upper(monkeypatch, bracket.upper, 200)
    single = solve_semilinear(spectrum, w, nl, mu)
    sweeps = len(calls) - 1  # every apply_T but the image of the limit is a sweep
    assert single.violations >= sweeps  # each verified sweep counts node 200
    for rep in (single, two_start_diagnostics(spectrum, w, nl, mu)):
        assert not rep.certified
        assert rep.violations == single.violations
        assert bracket.lower[200] <= rep.solution.values[200] <= bracket.upper[200]


def test_escape_message_counts_sweeps_not_newton_steps(ctx, monkeypatch):
    # the second apply_T is the closing sweep after the Newton steps; its
    # image, moved past the whole bracket, escapes on sweep 2
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    assert solve_semilinear(spectrum, w, nl, mu).iterations > 3
    upper = make_bracket(spectrum, nl, mu).upper
    real = semilinear_solver.apply_T
    calls = []

    def escaping_second(*args):
        calls.append(None)
        t = real(*args)
        return 2.0 * upper if len(calls) == 2 else t

    monkeypatch.setattr(semilinear_solver, "apply_T", escaping_second)
    with pytest.raises(BracketEscape, match=r"at 400/400 nodes on sweep 2$"):
        solve_semilinear(spectrum, w, nl, mu)


def test_monotone_row_whose_limit_image_leaves_the_bracket_is_uncertified(ctx, monkeypatch):
    # monotone_solve counts on the image T(u) it computes for residual_x
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    assert monotone_solve(spectrum, w, nl, mu).certified
    bracket = make_bracket(spectrum, nl, mu)
    image_past_upper(monkeypatch, bracket.upper, 200)
    rep = monotone_solve(spectrum, w, nl, mu)
    assert not rep.certified
    assert rep.residual_x >= 0.01 * bracket.upper[200] / spectrum.phi[200]


@pytest.mark.parametrize("n", [52, 57])
def test_constant_profile_rows_at_n1_stay_certified(n):
    # A constant g gives a zero-width bracket, so the image's rounding sits
    # outside it: at N = 1 by ~1e-11 of the local edge, more than the
    # 1e-12 BRACKET_SLACK and far below the CERT_SLACK that the sweeps and
    # the certificate admit.
    grid = make_grid(1, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(1.0, 3.0))
    op = spectrum.op
    w = estimate_c0_delta0(spectrum)
    nl = constant_profile(1.0)
    half = 0.0625 * window_semilinear(nl, w)
    excess = []
    for mu in (spectrum.Lambda - half, spectrum.Lambda + half):
        rep = two_start_diagnostics(spectrum, w, nl, mu)
        assert rep.certified
        b = make_bracket(spectrum, nl, mu)
        t = apply_T(spectrum, nl, mu, rep.solution.values)
        edge = np.maximum(np.abs(b.lower), np.abs(b.upper))
        excess.append(float(np.max(np.abs(t - np.clip(t, b.lower, b.upper)) / edge)))
    assert max(excess) > semilinear_solver.BRACKET_SLACK
    assert max(excess) <= 1e-9


def test_sweep_floor_keeps_a_steep_amp_row_certified(monkeypatch):
    # The AMP bracket is not invariant.  T's first image from the lower end
    # leaves it by more than CERT_SLACK of the local edge at 97 of 201
    # nodes, all in phi's tail (r > 2); only 45 of them lie past
    # BRACKET_SLACK of the largest edge too.  A sweep counts a node only
    # past both, so the row converges to a certified fixed point.  Counted
    # by outside_count alone, 97 nodes exceed ESCAPE_FRACTION on sweep 1.
    grid = make_grid(1, 4.0, 200)
    spectrum = summarize_spectrum(grid, power_potential(1.0, 6.0))
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(1.0, 3.0)
    mu = spectrum.Lambda + 0.2 * window_semilinear(nl, w)
    rep = two_start_diagnostics(spectrum, w, nl, mu)
    assert (rep.branch, rep.certified, rep.violations, rep.iterations) == ("AMP", True, 45, 5)
    assert rep.uniqueness.two_start_gap <= 1e-11
    monkeypatch.setattr(semilinear_solver, "BRACKET_SLACK", 0.0)
    with pytest.raises(BracketEscape, match="at 97/201 nodes on sweep 1"):
        two_start_diagnostics(spectrum, w, nl, mu)


def test_contracting_map_never_switches(ctx, fixed_points):
    _, _, spectrum, w = ctx
    rep = solve_semilinear(spectrum, w, rational_profile(1.0, 2.0), spectrum.Lambda - 0.1)
    assert rep.certified
    assert fixed_points[0].undamped_sweeps == fixed_points[0].iterations == rep.iterations


@settings(max_examples=30)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 300),
    kappa=st.floats(0.2, 2.0),
    spread=st.floats(1.0, 4.0),
    frac=st.floats(0.05, 0.95),
)
# Two AMP two-starts that end uncertified inside the window (residual_x
# 0.160 and 0.286): the AMP bracket is not invariant.
@example(
    c=3.3241526825810856, s=2.0000000000000004, space_dim=1, n=40, kappa=0.95,
    spread=3.3241526825810856, frac=0.05,
).xfail(raises=AssertionError, reason="FOUND 39, first draw; ROADMAP item 1")
@example(
    c=1.6386424223092848, s=2.0000000000000004, space_dim=1, n=40, kappa=1.6386424223092848,
    spread=3.8734089758968677, frac=0.05,
).xfail(raises=AssertionError, reason="FOUND 39, second draw; ROADMAP item 1")
def test_default_solve_is_certified_in_window(c, s, space_dim, n, kappa, spread, frac):
    grid = make_grid(space_dim, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(c, s))
    op = spectrum.op
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(kappa, kappa * spread)
    half = frac * window_semilinear(nl, w)
    phi = spectrum.phi

    mu = spectrum.Lambda - half
    rep = two_start_diagnostics(spectrum, w, nl, mu)
    assert rep.certified
    assert rep.uniqueness.two_start_gap <= 1e-7
    mono = monotone_solve(spectrum, w, nl, mu)
    assert x_norm(rep.solution.values - mono.solution.values, phi) <= 1e-8 * mono.solution.x_norm

    # On the AMP side the bracket is not invariant (no maximum principle):
    # mostly for N <= 2 the first image T(bracket end) can leave it at more
    # than ESCAPE_FRACTION of the nodes.  That sweep precedes any step rule.
    try:
        rep = two_start_diagnostics(spectrum, w, nl, spectrum.Lambda + half)
    except BracketEscape as exc:
        assert str(exc).endswith("on sweep 1")
    else:
        assert rep.certified
        assert rep.uniqueness.two_start_gap <= 1e-7


@settings(max_examples=30)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 300),
    kappa=st.floats(0.2, 2.0),
    spread=st.floats(1.0, 4.0),
    frac=st.floats(0.05, 0.95),
    side=st.sampled_from([-1.0, 1.0]),
)
# Two draws whose verified residual_x misses tol_x: an AMP two-start that
# ends at residual_x 0.234 (the AMP bracket is not invariant), and an MP
# row on a zero-width bracket (K = kappa) that ends at 5.5e-4 through the
# error of phi's tail.
@example(
    c=2.00001, s=2.00001, space_dim=1, n=40, kappa=1.4323759344303864,
    spread=3.3836630562029764, frac=0.05, side=1.0,
).xfail(raises=AssertionError, reason="AMP draw like FOUND 39's; ROADMAP item 1")
@example(
    c=4.658, s=5.924, space_dim=4, n=252, kappa=2.0, spread=1.0, frac=0.05, side=-1.0,
).xfail(raises=AssertionError, reason="FOUND 57, first half; ROADMAP item 2")
def test_newton_limit_matches_the_picard_limit(c, s, space_dim, n, kappa, spread, frac, side):
    # The Newton steps are unverified search directions: the two-start
    # limits must be the ones plain Picard sweeps (damping = 1) reach, with
    # the same certificate, and the verified residual must meet tol_x.
    grid = make_grid(space_dim, 4.0, n)
    spectrum = summarize_spectrum(grid, power_potential(c, s))
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(kappa, kappa * spread)
    mu = spectrum.Lambda + side * frac * window_semilinear(nl, w)
    tol_x = 1e-9
    # Picard sweeps that stop at a step s are about s*q/(1 - q) from their
    # limit, q the map's contraction: at a stop below tol_x that can exceed
    # 1e-10*||u||.  The reference stops below 1e-12 of the bracket's ratio
    # scale K/|Lambda - mu| instead, which is at most spread <= 4 times
    # ||u||_X >= kappa/|Lambda - mu|.
    ref_tol = 1e-12 * nl.k_upper / abs(spectrum.Lambda - mu)
    try:
        picard = two_start_diagnostics(spectrum, w, nl, mu, damping=1.0, tol_x=ref_tol)
    except BracketEscape as exc:  # sweep 1 is the same Picard sweep in both solves
        with pytest.raises(BracketEscape, match=re.escape(str(exc))):
            two_start_diagnostics(spectrum, w, nl, mu, tol_x=tol_x)
        return
    rep = two_start_diagnostics(spectrum, w, nl, mu, tol_x=tol_x)
    phi = spectrum.phi
    for got, want in ((rep.solution, picard.solution), (rep.solution_upper, picard.solution_upper)):
        assert x_norm(got.values - want.values, phi) <= 1e-10 * want.x_norm
    assert rep.certified == picard.certified
    assert rep.residual_x <= tol_x


def test_newton_solve_holds_no_more_memory_than_the_secant_solve():
    # tracemalloc transient of one solve on the semilinear_sweep and
    # system_sweep bench problems, above the memory held before the call;
    # the secant-mixed solves the Newton steps replaced peaked at 55760
    # (MP) and 55744 (AMP) bytes for the scalar, 109384 and 109328 for the
    # system
    grid = make_grid(3, 3.2, 400)
    spectrum = summarize_spectrum(grid, power_potential(1.0, 4.0))
    w = estimate_c0_delta0(spectrum)
    nl = rational_profile(1.0, 2.0)
    p = system_problem(spectrum, analyze_matrix(0.0, 1.0, 4.0, 0.0), nl, nl)
    solves = (
        (lambda mu: solve_semilinear(spectrum, w, nl, mu), spectrum.Lambda, 55760),
        (lambda mu: solve_system(p, w, mu), p.lambda_star, 109384),
    )
    tracing = tracemalloc.is_tracing()
    for solve, center, limit in solves:
        for mu in (center - 0.2, center + 0.2):
            solve(mu)  # fills the operator's cached norm bound
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                rep = solve(mu)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert rep.certified
            assert peak <= limit


def _with_edges(rng: np.random.Generator, shape: tuple, specials: tuple) -> np.ndarray:
    """Normal draws over six decades, with the given special values at random nodes."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    flat = a.reshape(-1)
    flat[rng.choice(flat.size, min(len(specials), flat.size), replace=False)] = specials[: flat.size]
    return a


EDGE_SETS = ((), (0.0, -0.0), (np.inf, -np.inf, 0.0), (np.nan, np.inf, -np.inf, -0.0))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def test_in_place_x_norms_have_the_reference_bits():
    # x_norm and x_distance form |v|/phi in one temporary: same bits as the
    # former one-expression form, on (n,) and (2, n) iterates with NaN, +-inf
    # and signed zeros, phi down to the 1e-33 of an outermost node
    rng = np.random.default_rng(8)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (1, 2, 17, 400):
            phi = np.exp(-rng.uniform(0.0, 76.0, n))
            for shape in ((n,), (2, n)):
                for specials in EDGE_SETS:
                    a = _with_edges(rng, shape, specials)
                    b = _with_edges(rng, shape, specials)
                    assert _bits(x_norm(a, phi)) == _bits(reference_x_norm(a, phi))
                    assert _bits(x_distance(a, b, phi)) == _bits(reference_x_norm(a - b, phi))
            # an integer array and a list are cast, not divided in place
            ints = rng.integers(-1000, 1000, n)
            assert _bits(x_norm(ints, phi)) == _bits(reference_x_norm(ints, phi))
            floats = list(rng.standard_normal(n))
            assert _bits(x_norm(floats, phi)) == _bits(reference_x_norm(floats, phi))


def test_in_place_outside_count_has_the_reference_counts():
    # images around a set with zero-width nodes, placed within a few
    # CERT_SLACK of its edges, with NaN, +-inf and floor > 0
    rng = np.random.default_rng(9)
    counts = []
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (1, 2, 17, 400):
            for shape in ((n,), (2, n)):
                for specials in EDGE_SETS:
                    lower = _with_edges(rng, shape, specials)
                    width = np.abs(rng.standard_normal(shape)) * (rng.random(shape) < 0.75)
                    upper = lower + width
                    edge = np.where(rng.random(shape) < 0.5, lower, upper)
                    nudge = rng.uniform(-4.0, 4.0, shape) * CERT_SLACK * np.abs(edge)
                    t = _with_edges(rng, shape, specials)
                    t = np.where(rng.random(shape) < 0.8, edge + nudge, t)
                    for floor in (0.0, 1e-12, 1e-6, 1.0):
                        want = reference_outside_count(t, lower, upper, floor)
                        assert semilinear_solver.outside_count(t, lower, upper, floor) == want
                        counts.append(want)
    assert 0 in counts and max(counts) > 100  # both sides of the slack are drawn


# ---------------------------------------------------------------- monotone


def test_monotone_solve_matches_damped(ctx):
    _, _, spectrum, w = ctx
    from groundstate import x_norm

    nl = rational_profile(1.0, 2.0)
    mu = spectrum.Lambda - 0.1
    mono = monotone_solve(spectrum, w, nl, mu)
    damped = solve_semilinear(spectrum, w, nl, mu, tol_x=1e-10)
    phi = spectrum.phi
    assert mono.uniqueness is not None
    assert mono.uniqueness.two_start_gap <= 1e-8
    assert mono.solution_upper is not None
    # ordered limits: lower limit sits below upper limit nodewise
    diff = mono.solution_upper.values - mono.solution.values
    assert float(diff.min()) >= -1e-10 * float(np.max(np.abs(mono.solution.values)))
    assert x_norm(mono.solution.values - damped.solution.values, phi) <= 1e-8
    assert mono.certified


def test_monotone_without_shift_breaks(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(MonotonicityBroken):
        monotone_solve(spectrum, w, nl, spectrum.Lambda - 0.1, shift=0.0)
    with pytest.raises(MalformedInput):
        monotone_solve(spectrum, w, nl, spectrum.Lambda - 0.1, shift=-1.0)


def test_monotone_needs_mu_below_lambda(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(WindowViolation):
        monotone_solve(spectrum, w, nl, spectrum.Lambda + 0.05)


def test_monotone_no_convergence_reports_its_budget(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    with pytest.raises(NoConvergence) as exc:
        monotone_solve(spectrum, w, nl, spectrum.Lambda - 0.1, max_iter=1)
    assert exc.value.iterations == 1


# ------------------------------------------------------------- uniqueness


def test_brezis_oswald_exact_zero_cases(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi
    assert brezis_oswald_identity(op, phi, phi) == (0.0, 0.0)
    assert brezis_oswald_identity(op, phi, 2.0 * phi) == (0.0, 0.0)


def test_brezis_oswald_rejects_sign_mixed(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi
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
        phi = spectrum.phi
        u = phi * (1.0 + 0.1 / (1.0 + grid.r**2))
        t_lhs, gap = brezis_oswald_identity(spectrum.op, u, phi)
        assert t_lhs > 0.0
        gaps.append(abs(gap))
    assert gaps[0] / gaps[1] >= 3.0


def test_two_start_diagnostics_fields(ctx):
    _, _, spectrum, w = ctx
    nl = rational_profile(1.0, 2.0)
    rep = two_start_diagnostics(spectrum, w, nl, spectrum.Lambda - 0.1)
    assert rep.uniqueness is not None
    assert rep.uniqueness.two_start_gap <= 1e-8
    assert abs(rep.uniqueness.brezis_oswald_residual) <= 1e-10
    assert rep.solution_upper is not None
    assert rep.certified


@pytest.mark.parametrize("offset", [-0.1, 0.1], ids=["MP", "AMP"])
def test_two_start_row_holds_the_form_of_its_two_limits(ctx, offset):
    # the bo_residual column is the Brezis-Oswald form of the two limits
    _, op, spectrum, w = ctx
    rep = two_start_diagnostics(spectrum, w, rational_profile(1.0, 2.0), spectrum.Lambda + offset)
    form = brezis_oswald_check(op, rep.solution.values, rep.solution_upper.values)
    assert rep.uniqueness.brezis_oswald_residual == form


# ----------------------------------------------------- one-sided regime


def one_sided_profile():
    """g = -0.5 + 1.5 exp(-(u/10)^2), g_u = -0.03 u exp(-(u/10)^2)."""
    return Nonlinearity(
        profile=lambda r, u: -0.5
        + 1.5 * np.exp(-((np.asarray(u, dtype=float) / 10.0) ** 2)),
        kappa=-0.5,
        k_upper=1.5,
        derivative=lambda r, u: -0.03
        * np.asarray(u, dtype=float)
        * np.exp(-((np.asarray(u, dtype=float) / 10.0) ** 2)),
    )


def test_one_sided_mp_solve_reports_without_certificate(ctx):
    _, _, spectrum, w = ctx
    nl = one_sided_profile()
    mu = spectrum.Lambda - 0.5
    rep = solve_semilinear(spectrum, w, nl, mu)
    assert rep.branch == "MP"
    # the bracket edges are reported, the certificate is not claimed
    assert rep.bound_lo == pytest.approx(-1.0, rel=1e-9)
    assert rep.bound_hi == pytest.approx(3.0, rel=1e-9)
    assert not rep.certified
    assert window_semilinear(nl, w) == w.delta0
    # the solution itself is still a genuine fixed point
    assert rep.residual_x <= 1e-7


def test_one_sided_amp_branch_is_refused(ctx):
    _, _, spectrum, w = ctx
    nl = one_sided_profile()
    with pytest.raises(WindowViolation, match="kappa > 0"):
        solve_semilinear(spectrum, w, nl, spectrum.Lambda + 0.1)


def test_one_sided_monotone_solve_agrees(ctx):
    _, _, spectrum, w = ctx
    from groundstate import x_norm

    nl = one_sided_profile()
    mu = spectrum.Lambda - 0.5
    mono = monotone_solve(spectrum, w, nl, mu)
    damped = solve_semilinear(spectrum, w, nl, mu, tol_x=1e-10)
    assert mono.uniqueness.two_start_gap <= 1e-8
    assert not mono.certified
    assert (
        x_norm(mono.solution.values - damped.solution.values, spectrum.phi)
        <= 1e-8
    )
