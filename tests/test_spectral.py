"""Eigensolver tests against frozen oracle values and exact identities.

Oracle provenance: Richardson extrapolation over exact h-halving pairs,
cross-checked on two domain sizes (agreement ~1e-12) and against the
dimension-reduction identity lambda(N=3, 1+r^4) = 1 + lambda_odd(1D, r^4).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracles import eigenpairs, quadratic_form
from scipy.linalg import eigh_tridiagonal, solveh_banded

from groundstate import (
    RadialPotential,
    assemble,
    eigenvalues,
    exp_potential,
    make_grid,
    power_potential,
    principal_eigenpair,
    second_eigenvalue,
    sector_matrix,
    summarize_spectrum,
)
from groundstate import spectral
from groundstate.errors import MalformedInput
from groundstate.experiment_cli import main

# -u'' + x^4 u on the line, frozen from a dense-solve + Richardson oracle
QUARTIC_1D_EVEN = 1.060362090487686
QUARTIC_1D_ODD = 3.7996730298126504
# -Delta + 1 + r^4 on R^3, domain-converged (r_max 4.0 and 4.8 agree)
QUARTIC_3D_LAMBDA = 4.799673029849
QUARTIC_3D_LAMBDA2 = 8.108444167793  # first ell = 1 level
QUARTIC_3D_LAMBDA2_RADIAL = 12.644745512464  # second ell = 0 level

QUARTIC_1D = RadialPotential(lambda r: r**4, name="quartic1d")
QUARTIC_3D = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")
OSC_1D = RadialPotential(lambda r: r * r, name="oscillator")


def richardson(coarse: float, fine: float) -> float:
    """Second-order extrapolation for an exact h -> h/2 pair."""
    return (4.0 * fine - coarse) / 3.0


def halved_pair(space_dim, r_max, n_fine, pot, sector, k=1):
    """Eigenvalues on grids with spacing exactly h and 2h."""
    n_coarse = (n_fine + 1) // 2 - 1
    lo = eigenvalues(*sector_matrix(make_grid(space_dim, r_max, n_coarse), pot, sector), k)
    hi = eigenvalues(*sector_matrix(make_grid(space_dim, r_max, n_fine), pot, sector), k)
    return lo, hi


def test_quartic_1d_even_oracle():
    lo, hi = halved_pair(1, 6.0, 1499, QUARTIC_1D, 0)
    assert richardson(lo[0], hi[0]) == pytest.approx(QUARTIC_1D_EVEN, abs=1e-9)


def test_quartic_1d_odd_oracle():
    lo, hi = halved_pair(1, 6.0, 1499, QUARTIC_1D, 1)
    assert richardson(lo[0], hi[0]) == pytest.approx(QUARTIC_1D_ODD, abs=1e-9)


def test_second_order_convergence_rate():
    lo, hi = halved_pair(1, 6.0, 1499, QUARTIC_1D, 0)
    ref = richardson(lo[0], hi[0])
    # halving h divides the eigenvalue error by ~4
    assert abs(lo[0] - ref) / abs(hi[0] - ref) > 3.5


def test_quartic_3d_oracles():
    g_lo = make_grid(3, 4.0, 499)
    g_hi = make_grid(3, 4.0, 999)
    s_lo = summarize_spectrum(g_lo, QUARTIC_3D)
    s_hi = summarize_spectrum(g_hi, QUARTIC_3D)
    assert richardson(s_lo.Lambda, s_hi.Lambda) == pytest.approx(
        QUARTIC_3D_LAMBDA, abs=1e-8
    )
    assert richardson(s_lo.lambda2, s_hi.lambda2) == pytest.approx(
        QUARTIC_3D_LAMBDA2, abs=1e-8
    )
    assert richardson(s_lo.radial_eigs[1], s_hi.radial_eigs[1]) == pytest.approx(
        QUARTIC_3D_LAMBDA2_RADIAL, abs=1e-7
    )
    assert s_hi.lambda2_sector == 1
    # Lambda comes from inverse iteration, radial_eigs from the direct
    # tridiagonal solve; the two routes agree to solver precision
    assert s_hi.radial_eigs[0] == pytest.approx(s_hi.Lambda, abs=1e-9)


def test_dimension_reduction_identity():
    # the ell = 0 sector of -Delta + 1 + r^4 on R^3 is the odd sector of
    # -u'' + r^4 u on the line, shifted by 1
    assert QUARTIC_3D_LAMBDA == pytest.approx(1.0 + QUARTIC_1D_ODD, abs=1e-9)
    assert QUARTIC_3D_LAMBDA2_RADIAL == pytest.approx(
        1.0 + 11.64474551244752, abs=1e-9
    )


def test_oscillator_spectrum_even_and_odd():
    g = make_grid(1, 7.0, 699)
    even = eigenvalues(*sector_matrix(g, OSC_1D, 0), 3)
    odd = eigenvalues(*sector_matrix(g, OSC_1D, 1), 3)
    np.testing.assert_allclose(even, [1.0, 5.0, 9.0], atol=5e-3)
    np.testing.assert_allclose(odd, [3.0, 7.0, 11.0], atol=5e-3)


def test_oscillator_groundstate_value_at_origin():
    g = make_grid(1, 6.0, 599)
    op = assemble(g, OSC_1D)
    lam, phi = principal_eigenpair(op, eigenvalues(op.diag, op.offdiag, 2))
    assert lam == pytest.approx(1.0, abs=1e-4)
    # L^2-normalized Gaussian groundstate: phi(0) = pi^(-1/4)
    assert phi[0] == pytest.approx(np.pi**-0.25, abs=1e-4)


def test_principal_eigenvector_strictly_positive():
    for dim, pot in ((1, OSC_1D), (2, QUARTIC_3D), (3, QUARTIC_3D), (5, QUARTIC_3D)):
        op = assemble(make_grid(dim, 4.0, 240), pot)
        _, phi = principal_eigenpair(op, eigenvalues(op.diag, op.offdiag, 2))
        assert np.all(phi > 0.0), f"phi has nonpositive entries for N={dim}"


def test_eigenpairs_orthonormal_in_grid_quadrature():
    g = make_grid(3, 3.2, 300)
    op = assemble(g, QUARTIC_3D)
    _, vecs = eigenpairs(op, 3)
    gram = np.array(
        [[g.integrate(vecs[:, i] * vecs[:, j]) for j in range(3)] for i in range(3)]
    )
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_rayleigh_quotient_matches_eigenvalue():
    g = make_grid(3, 3.2, 300)
    op = assemble(g, QUARTIC_3D)
    lam, phi = principal_eigenpair(op, eigenvalues(op.diag, op.offdiag, 2))
    ray = quadratic_form(op, phi) / g.integrate(phi**2)
    assert ray == pytest.approx(lam, abs=1e-10)
    # matvec consistency: quadratic form equals <u, Lu> in the quadrature
    inner = g.integrate(phi * op.matvec(phi))
    assert inner == pytest.approx(quadratic_form(op, phi), rel=1e-12)


def test_second_eigenvalue_sector_and_budget():
    g = make_grid(3, 3.2, 300)
    radial = eigenvalues(*sector_matrix(g, QUARTIC_3D, 0), 6)
    lam2, sector = second_eigenvalue(g, QUARTIC_3D, radial)
    assert sector == 1
    assert lam2 == pytest.approx(QUARTIC_3D_LAMBDA2, abs=5e-3)


def test_summary_consistency():
    g = make_grid(3, 3.2, 300)
    s = summarize_spectrum(g, QUARTIC_3D)
    assert s.Lambda < s.lambda2 < s.radial_eigs[1]
    assert s.gap == pytest.approx(s.lambda2 - s.Lambda)
    assert np.all(s.phi > 0.0)
    assert g.integrate(s.phi**2) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(s.radial_eigs) > 0)


def test_radial_eigs_own_their_data():
    # a view into stebz's n-length output would keep all of it alive for
    # as long as the summary lives (the whole run)
    s = summarize_spectrum(make_grid(3, 3.2, 2400), QUARTIC_3D)
    assert s.radial_eigs.shape == (spectral.RADIAL_EIGS,)
    assert s.radial_eigs.base is None
    assert eigenvalues(s.op.diag, s.op.offdiag, 2).base is None


def test_eigenvalues_rejects_bad_count():
    op = assemble(make_grid(3, 3.2, 60), QUARTIC_3D)
    with pytest.raises(MalformedInput):
        eigenvalues(op.diag, op.offdiag, 0)
    with pytest.raises(MalformedInput):
        eigenvalues(op.diag, op.offdiag, 61)


# --------------------------------------------- lambda2 from sectors 0 and 1 only


def full_sector_scan(grid, pot, top_sector=8):
    """Reference: the scan over sectors 0..top_sector that lambda2 once came from.

    Sector 0 contributes a fresh two-eigenvalue bisection, every other
    sector its first eigenvalue; ties go to the lower sector.
    """
    cap = 1 if grid.space_dim == 1 else top_sector
    candidates = [(float(eigenvalues(*sector_matrix(grid, pot, 0), 2)[1]), 0)]
    for ell in range(1, cap + 1):
        candidates.append((float(eigenvalues(*sector_matrix(grid, pot, ell), 1)[0]), ell))
    return min(candidates, key=lambda t: (t[0], t[1]))


@settings(max_examples=30)
@given(
    c=st.floats(0.05, 5.0),
    s=st.floats(2.0, 6.0, exclude_min=True),
    space_dim=st.integers(1, 5),
    n=st.integers(40, 400),
)
def test_lambda2_matches_the_full_sector_scan(c, s, space_dim, n):
    grid = make_grid(space_dim, 4.0, n)
    pot = power_potential(c, s)
    summary = summarize_spectrum(grid, pot)
    assert (summary.lambda2, summary.lambda2_sector) == full_sector_scan(grid, pot)
    if space_dim >= 2:
        # Courant-Fischer: the lowest level of sector ell rises with ell
        firsts = [eigenvalues(*sector_matrix(grid, pot, ell), 1)[0] for ell in range(9)]
        assert np.all(np.diff(firsts) > 0)


def test_linear_run_assembles_and_bisects_each_sector_once(tmp_path, monkeypatch):
    """Sector 0 once and sector 1 once per run; no eigenvalues of sectors >= 2.

    Assemblies: sector 0's operator and sector 1's tridiagonal alone.
    Bisections: the RADIAL_EIGS sweep of sector 0, which also feeds the
    principal pair, and sector 1.  The second eigenvector behind
    f = phi + coeff*phi2 is one stein call on the sweep's values.
    """
    assembled, bisected, inverse_iterations = [], [], []
    real_sector_matrix, real_stebz = spectral.sector_matrix, spectral.dstebz
    real_stein = spectral.dstein

    def counting_sector_matrix(grid, pot, sector):
        assembled.append(sector)
        return real_sector_matrix(grid, pot, sector)

    def counting_stebz(*args, **kwargs):
        bisected.append(args)
        return real_stebz(*args, **kwargs)

    def counting_stein(*args, **kwargs):
        inverse_iterations.append(args)
        return real_stein(*args, **kwargs)

    monkeypatch.setattr(spectral, "sector_matrix", counting_sector_matrix)
    monkeypatch.setattr(spectral, "dstebz", counting_stebz)
    monkeypatch.setattr(spectral, "dstein", counting_stein)
    cfg = {
        "mode": "linear",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 300},
        "f": {"kind": "phi_plus_phi2", "coeff": 0.5},
        "mu_offsets": [-0.1, 0.1],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert sorted(assembled) == [0, 1]
    assert len(bisected) == 2
    assert len(inverse_iterations) == 1


def reference_principal_eigenpair(op, lowest):
    """principal_eigenpair as first written: solveh_banded on a 2-row band, which is ptsv."""
    lam, gap = float(lowest[0]), float(lowest[1] - lowest[0])
    sigma = lam - 0.05 * gap
    ab = np.zeros((2, op.dim))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - sigma
    x = np.ones(op.dim)
    x /= np.linalg.norm(x)
    scale_bound = float(np.max(np.abs(op.diag)))
    prev_res = math.inf
    for _ in range(spectral.EIGEN_BUDGET):
        x = solveh_banded(ab, x, lower=False)
        x /= np.linalg.norm(x)
        y = op._product(x)
        rho = float(np.dot(x, y))
        res = float(np.linalg.norm(y - rho * x))
        if res <= 1e-14 * scale_bound or res > 0.5 * prev_res:
            break
        prev_res = res
    u = op.extend(x)
    u /= np.sqrt(op.grid.integrate(u * u))
    return rho, u


def random_sectors(count: int, seed: int):
    """(grid, pot, sector) of admissible sectors 0 and 1: power and exp wells, N 1-5, n 8-2400."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        space_dim = int(rng.integers(1, 6))
        n = int(np.exp(rng.uniform(np.log(8), np.log(2400))))
        if rng.random() < 0.5:
            pot = power_potential(float(rng.uniform(0.1, 3.0)), float(rng.uniform(2.1, 6.0)))
        else:
            pot = exp_potential()
        grid = make_grid(space_dim, float(rng.uniform(2.0, 5.0)), n)
        yield grid, pot, int(rng.integers(0, 2))


def test_direct_lapack_calls_are_bit_identical_to_the_scipy_wrappers():
    # stebz is what eigh_tridiagonal(select="i") runs, ptsv what
    # solveh_banded runs for a 2-row band; the direct calls keep their bits
    sectors = set()
    for grid, pot, sector in random_sectors(48, seed=25):
        sectors.add((grid.space_dim == 1, sector))
        diag, offdiag = sector_matrix(grid, pot, sector)
        k = min(spectral.RADIAL_EIGS, len(diag))
        vals = eigenvalues(diag, offdiag, k)
        wrapped = eigh_tridiagonal(
            diag, offdiag, select="i", select_range=(0, k - 1), eigvals_only=True
        )
        assert np.array_equal(vals, wrapped)
        if sector == 0:
            op = assemble(grid, pot)
            lam, phi = principal_eigenpair(op, vals)
            ref_lam, ref_phi = reference_principal_eigenpair(op, vals)
            assert lam == ref_lam and np.array_equal(phi, ref_phi)
    assert sectors == {(True, 0), (True, 1), (False, 0), (False, 1)}


def test_bisection_failure_exits_3_without_output(tmp_path, monkeypatch, capsys):
    real = spectral.dstebz

    def no_convergence(*args):
        *out, _ = real(*args)
        return (*out, 1)

    monkeypatch.setattr(spectral, "dstebz", no_convergence)
    cfg = {
        "mode": "eigen",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 200},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert "numerical failure: LinAlgError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
