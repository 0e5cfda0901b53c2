"""Resolvent solves near Lambda and the pointwise sign certificates."""

import math

import numpy as np
import pytest

from groundstate import (
    RadialPotential,
    assemble,
    certify_theorem1,
    eigenpairs,
    estimate_c0_delta0,
    linear_problem,
    make_grid,
    solve_linear,
    summarize_spectrum,
)
from groundstate.errors import HypothesisViolated, SingularResolvent

POT = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


@pytest.fixture(scope="module")
def ctx():
    grid = make_grid(3, 3.2, 400)
    spectrum = summarize_spectrum(grid, POT)
    op = assemble(grid, POT, 0)
    window = estimate_c0_delta0(spectrum, op)
    return grid, op, spectrum, window


def test_groundstate_data_below_lambda(ctx):
    grid, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    mu = lam - 0.1
    p = linear_problem(op, spectrum, phi)
    assert p.hstar_f
    u = solve_linear(p, mu)
    assert u.c1 == pytest.approx(10.0, rel=1e-9)
    np.testing.assert_allclose(u.values, 10.0 * phi, atol=1e-7)
    # the discrete equation holds
    resid = op.matvec(u.values) - mu * u.values - phi
    assert grid.norm(resid) <= 1e-8


def test_gsp_certificate_for_groundstate_data(ctx):
    _, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    cert = certify_theorem1(linear_problem(op, spectrum, phi), w, lam - 0.1)
    assert cert.in_window
    assert math.isinf(cert.delta_f)
    assert cert.window_used == pytest.approx(w.delta0)
    assert cert.bound == pytest.approx(10.0, rel=1e-9)
    assert cert.certified
    assert cert.gsp == cert.bound
    assert cert.gsn is None
    assert cert.min_ratio >= 10.0 * (1.0 - 1e-6)


def test_gsn_certificate_above_lambda(ctx):
    _, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    cert = certify_theorem1(linear_problem(op, spectrum, phi), w, lam + 0.1)
    assert cert.in_window
    assert cert.bound == pytest.approx(-10.0, rel=1e-9)
    assert cert.certified
    assert cert.gsn == cert.bound
    assert cert.gsp is None
    assert cert.max_ratio <= -10.0 * (1.0 - 1e-6)


def test_solve_is_linear_in_data(ctx):
    grid, op, spectrum, _ = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    rng = np.random.default_rng(7)
    g = rng.standard_normal(grid.n) * phi
    mu = lam - 0.3
    u_f = solve_linear(linear_problem(op, spectrum, phi), mu).values
    u_g = solve_linear(linear_problem(op, spectrum, g), mu).values
    u_mix = solve_linear(linear_problem(op, spectrum, 2.0 * phi - 0.5 * g), mu).values
    np.testing.assert_allclose(u_mix, 2.0 * u_f - 0.5 * u_g, atol=1e-8)


def test_mixed_data_certifies_on_both_sides(ctx):
    _, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    _, vecs = eigenpairs(op, 2)
    f = phi + 0.5 * vecs[:, 1]

    lo = certify_theorem1(linear_problem(op, spectrum, f), w, lam - 0.1)
    assert lo.in_window and lo.certified
    assert lo.bound is not None and 0.0 < lo.bound < 10.0
    assert lo.min_ratio >= lo.bound * (1.0 - 1e-6)

    hi = certify_theorem1(linear_problem(op, spectrum, f), w, lam + 0.1)
    assert hi.in_window and hi.certified
    assert hi.bound is not None and -10.0 < hi.bound < 0.0
    assert hi.max_ratio <= hi.bound * (1.0 - 1e-6)

    # the data-dependent window is finite for data with a perp part
    assert math.isfinite(lo.delta_f)
    assert lo.window_used == pytest.approx(min(w.delta0, lo.delta_f))


def test_out_of_window_reports_but_never_certifies(ctx):
    _, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    mu = lam - (w.delta0 + 0.5)
    cert = certify_theorem1(linear_problem(op, spectrum, phi), w, mu)
    assert not cert.in_window
    assert cert.bound is None
    assert not cert.certified
    assert cert.gsp is None and cert.gsn is None
    # raw statistics are still reported for sweep curves
    assert cert.min_ratio == pytest.approx(1.0 / (lam - mu), rel=1e-6)


def test_singular_shifts_are_rejected(ctx):
    _, op, spectrum, _ = ctx
    phi = spectrum.phi.values
    for mu in (spectrum.Lambda, spectrum.lambda2, spectrum.Lambda + 5e-9):
        with pytest.raises(SingularResolvent):
            solve_linear(linear_problem(op, spectrum, phi), mu)


def test_wrong_sign_data_is_rejected(ctx):
    _, op, spectrum, w = ctx
    lam, phi = spectrum.Lambda, spectrum.phi.values
    _, vecs = eigenpairs(op, 2)
    for f in (-phi, vecs[:, 1] - 0.5 * phi):
        with pytest.raises(HypothesisViolated):
            certify_theorem1(linear_problem(op, spectrum, f), w, lam - 0.1)
