"""Grid construction, quadrature, and potential validation tests."""

import numpy as np
import pytest

from groundstate import (
    RadialPotential,
    build_grid,
    exp_potential,
    make_grid,
    power_potential,
    sphere_area,
    tabulated_potential,
)
from groundstate.errors import MalformedInput, UnboundedSearch

QUARTIC = RadialPotential(lambda r: 1.0 + r**4, name="quartic")


def test_sphere_area_known_dimensions():
    # |S^{N-1}|: two points, circle, sphere, 3-sphere
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi)
    assert sphere_area(4) == pytest.approx(2.0 * np.pi**2)


def test_make_grid_nodes_and_spacing():
    g = make_grid(3, 2.0, 99)
    assert g.h == pytest.approx(2.0 / 100)
    assert g.r[0] == pytest.approx(g.h)
    assert g.r[-1] == pytest.approx(2.0 - g.h)
    assert len(g.r) == g.n == 99
    np.testing.assert_allclose(np.diff(g.r), g.h)
    # interior nodes only: both endpoints excluded
    assert g.r[0] > 0.0 and g.r[-1] < g.r_max


def test_quad_weights_match_surface_measure():
    g = make_grid(3, 2.0, 99)
    np.testing.assert_allclose(g.quad_weights, 4.0 * np.pi * g.r**2 * g.h)


def test_make_grid_one_dimensional_keeps_origin():
    g = make_grid(1, 6.0, 9)
    assert g.r[0] == 0.0
    # half-line fold: origin cell has half the weight of the others
    assert g.quad_weights[0] == pytest.approx(g.h)
    np.testing.assert_allclose(g.quad_weights[1:], 2.0 * g.h)


def test_integrate_converges_to_ball_integral():
    # int_{B_2} (4 - |x|^2) dx in R^3 = 256*pi/15, integrand vanishing at
    # the Dirichlet boundary like everything this quadrature is used on
    exact = 256.0 * np.pi / 15.0
    errs = []
    for n in (200, 400):
        g = make_grid(3, 2.0, n)
        errs.append(abs(g.integrate(4.0 - g.r**2) - exact))
    assert errs[0] < 1e-3 * exact
    assert errs[1] < 0.3 * errs[0]


def test_ball_volume_and_norm():
    g = make_grid(3, 2.0, 400)
    assert g.ball_volume() == pytest.approx(4.0 / 3.0 * np.pi * 8.0)
    v = np.ones(g.n)
    assert g.norm(v) == pytest.approx(np.sqrt(g.integrate(v**2)))


def test_power_and_exp_potentials():
    p = power_potential(2.0, 3.0)
    r = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p.evaluator(r), 2.0 + r**3)
    e = exp_potential()
    np.testing.assert_allclose(e.evaluator(r), np.exp(r))


@pytest.mark.parametrize(
    "c, s, key",
    [(1.0, 2.0, "potential.s"), (1.0, 1.5, "potential.s"), (1.0, float("nan"), "potential.s"),
     (0.0, 4.0, "potential.c")],
)
def test_power_potential_refuses_the_quadratic_borderline(c, s, key):
    # the integral of q**-0.5 is finite for c + r**s exactly when s > 2
    with pytest.raises(MalformedInput, match=key):
        power_potential(c, s)
    power_potential(1.0, 2.0 + 1e-9)


def test_tabulated_potential_interpolates_and_extends(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("r,q\n0.0,1.0\n1.0,2.0\n2.0,5.0\n")
    t = tabulated_potential(str(path))
    got = t.evaluator(np.array([0.5, 1.5, 3.0]))
    # linear inside, end-slope extension outside
    np.testing.assert_allclose(got, [1.5, 3.5, 8.0])


def test_build_grid_reaches_truncation_level():
    g = build_grid(QUARTIC, 3, spectral_scale=5.0, points_per_unit=100.0)
    # r_max is the smallest radius with q >= factor*scale (factor 4)
    assert QUARTIC.evaluator(np.array([g.r_max]))[0] == pytest.approx(20.0, rel=1e-6)
    assert g.n >= int(100.0 * g.r_max) - 1
    assert g.truncation_margin(QUARTIC, 5.0) == pytest.approx(4.0, rel=1e-6)


def test_build_grid_unbounded_potential_search():
    flat = RadialPotential(lambda r: 1.0 + r**2 / (1.0 + r**2))
    with pytest.raises(UnboundedSearch):
        build_grid(flat, 3, spectral_scale=5.0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(MalformedInput):
        make_grid(0, 2.0, 50)
    with pytest.raises(MalformedInput):
        make_grid(3, -1.0, 50)
    with pytest.raises(MalformedInput):
        make_grid(3, 2.0, 1)
