"""Acceptance suite: ten end-to-end checks at fixed tolerances.

Each test prints one summary line (visible with pytest -s; pytest -v shows
the same verdict as PASSED/FAILED per criterion).
"""

import csv
import json

import numpy as np
import pytest

from groundstate import (
    RadialPotential,
    analyze_matrix,
    assemble,
    block_solve,
    brezis_oswald_check,
    certify_theorem1,
    constant_profile,
    coupled_uniqueness_check,
    estimate_c0_delta0,
    linear_problem,
    make_grid,
    monotone_solve,
    rational_profile,
    solve_linear,
    solve_semilinear,
    solve_system,
    summarize_spectrum,
    system_problem,
    system_two_start,
    two_start_diagnostics,
    x_norm,
)
from groundstate.experiment_cli import main

OSC = RadialPotential(lambda r: r**2, name="oscillator")
QUARTIC = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def osc1d():
    """N=1 oscillator for the linear certificates (criteria 2-3)."""
    grid = make_grid(1, 6.0, 1200)
    spectrum = summarize_spectrum(grid, OSC)
    op = assemble(grid, OSC, 0)
    w = estimate_c0_delta0(spectrum, op)
    return grid, op, spectrum, w


@pytest.fixture(scope="module")
def quart():
    """N=3 quartic well for the nonlinear suites (criteria 4-5, 7-9)."""
    grid = make_grid(3, 3.2, 1599)
    spectrum = summarize_spectrum(grid, QUARTIC)
    op = assemble(grid, QUARTIC, 0)
    w = estimate_c0_delta0(spectrum, op)
    return grid, op, spectrum, w


def test_criterion_01_eigensolver_oracles():
    g1 = make_grid(1, 8.0, 2000)
    s1 = summarize_spectrum(g1, OSC)
    g3 = make_grid(3, 8.0, 2000)
    s3 = summarize_spectrum(g3, OSC)
    ok = (
        abs(s1.Lambda - 1.0) <= 1e-3
        and abs(s1.lambda2 - 3.0) <= 1e-3
        and s1.lambda2_sector == 1
        and abs(s3.Lambda - 3.0) <= 1e-3
        and abs(s3.lambda2 - 5.0) <= 1e-3
        and s3.lambda2_sector == 1
    )
    verdict(
        1,
        ok,
        f"N=1: Lambda={s1.Lambda:.6f}, lambda2={s1.lambda2:.6f} (sector {s1.lambda2_sector}); "
        f"N=3: Lambda={s3.Lambda:.6f}, lambda2={s3.lambda2:.6f} (sector {s3.lambda2_sector})",
    )


def test_criterion_02_linear_exactness(osc1d):
    _, op, spectrum, _ = osc1d
    lam, phi = spectrum.Lambda, spectrum.phi.values
    u_lo = solve_linear(linear_problem(op, spectrum, phi), lam - 0.1)
    u_hi = solve_linear(linear_problem(op, spectrum, phi), lam + 0.1)
    err_lo = x_norm(u_lo.values - 10.0 * phi, phi)
    err_hi = x_norm(u_hi.values + 10.0 * phi, phi)
    ok = err_lo <= 1e-6 and err_hi <= 1e-6
    verdict(2, ok, f"||u - 10 phi||_X = {err_lo:.3g}, ||u + 10 phi||_X = {err_hi:.3g}")


def test_criterion_03_linear_certificates(osc1d):
    grid, op, spectrum, w = osc1d
    lam, phi = spectrum.Lambda, spectrum.phi.values
    from groundstate import decompose, eigenpairs

    _, vecs = eigenpairs(op, 2)
    f_values = phi + 0.5 * vecs[:, 1]
    f = decompose(f_values, phi, grid.quad_weights)
    perp_x = x_norm(f.perp, phi)
    window = min(w.delta0, f.c1 / (w.c0 * perp_x))

    worst = np.inf
    count = 0
    for k in range(1, 9):
        for side in (-1.0, +1.0):
            mu = lam + side * window * k / 9.0
            cert = certify_theorem1(linear_problem(op, spectrum, f_values), w, mu)
            assert cert.in_window
            scalar = f.c1 / (lam - mu)
            if side < 0:
                margin = cert.min_ratio - (scalar - w.c0 * perp_x)
            else:
                margin = (scalar + w.c0 * perp_x) - cert.max_ratio
            worst = min(worst, margin)
            count += 1
    ok = worst >= 0.0 and count == 16
    verdict(3, ok, f"16 mu values, worst pointwise certificate margin {worst:.3g}")


def test_criterion_04_semilinear_suite(quart):
    _, op, spectrum, w = quart
    lam, phi = spectrum.Lambda, spectrum.phi.values
    nl = rational_profile(1.0, 2.0)
    checks = []
    for mu, side in ((lam - 0.1, "MP"), (lam + 0.05, "AMP")):
        rep = solve_semilinear(op, spectrum, w, nl, mu, tol_x=1e-9)
        bound = nl.k_upper / abs(lam - mu) + 2.0 * w.c0 * nl.k_upper
        checks.append(rep.branch == side)
        checks.append(rep.iterations < 500)
        checks.append(rep.violations == 0)
        checks.append(x_norm(rep.solution.values, phi) <= bound * (1.0 + 1e-3))
        if side == "MP":
            gsp = rep.min_ratio
            checks.append(gsp >= 10.0 * (1.0 - 1e-6))
        else:
            gsn = rep.max_ratio
            checks.append(gsn <= -20.0 * (1.0 - 1e-6))
        checks.append(rep.certified)
    ok = all(checks)
    verdict(4, ok, f"MP min(u/phi) = {gsp:.9f} >= 10(1-1e-6); AMP max(u/phi) = {gsn:.9f} <= -20(1-1e-6)")


def test_criterion_05_uniqueness_diagnostics(quart):
    _, op, spectrum, w = quart
    lam, phi = spectrum.Lambda, spectrum.phi.values
    nl = rational_profile(1.0, 2.0)
    mu = lam - 0.1

    two = two_start_diagnostics(op, spectrum, w, nl, mu)
    gap = two.uniqueness.two_start_gap

    mono = monotone_solve(op, spectrum, w, nl, mu)
    diff = mono.solution_upper.values - mono.solution.values
    ordered = float(diff.min()) >= -1e-10 * float(np.max(np.abs(mono.solution.values)))

    t_lhs, identity_gap = brezis_oswald_check(
        op, two.solution.values, two.solution_upper.values
    )
    rhs = t_lhs - identity_gap
    bo_ok = abs(t_lhs) <= 1e-8 and abs(rhs) <= 1e-8

    # the identity gap on a genuinely non-proportional smooth pair shrinks
    # under exact h-halving (n=799 -> n=1599 keeps r_max fixed)
    gaps = []
    for n in (799, 1599):
        g = make_grid(3, 3.2, n)
        s = summarize_spectrum(g, QUARTIC)
        o = assemble(g, QUARTIC, 0)
        u = s.phi.values * (1.0 + 0.1 / (1.0 + g.r**2))
        gaps.append(abs(brezis_oswald_check(o, u, s.phi.values)[1]))
    refines = gaps[1] <= gaps[0] / 1.8

    ok = gap <= 1e-7 and ordered and bo_ok and refines
    verdict(
        5,
        ok,
        f"two-start gap {gap:.3g}; monotone ordered {ordered}; "
        f"BO sides ({t_lhs:.3g}, {rhs:.3g}); halving gap {gaps[0]:.3g} -> {gaps[1]:.3g}",
    )


def test_criterion_06_cooperative_algebra():
    checks = []
    m1 = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    checks.append(abs(m1.xi1 - 2.0) <= 1e-12)
    checks.append(np.max(np.abs(m1.y - np.array([1.0, 2.0]))) <= 1e-12)
    m2 = analyze_matrix(1.0, 2.0, 3.0, 2.0)
    checks.append(abs(m2.xi1 - 4.0) <= 1e-12)
    checks.append(np.max(np.abs(m2.y - np.array([2.0, 3.0]))) <= 1e-12)
    for m in (m1, m2):
        checks.append(np.max(np.abs(m.p @ m.p_inv - np.eye(2))) <= 1e-12)
        diag = m.p_inv @ m.as_array @ m.p
        checks.append(np.max(np.abs(diag - np.diag([m.xi1, m.xi2]))) <= 1e-12)
    ok = all(checks)
    verdict(6, ok, f"xi1 = {m1.xi1}, {m2.xi1}; Y = {m1.y.tolist()}, {m2.y.tolist()}")


def test_criterion_07_system_principal_direction(quart):
    _, op, spectrum, w = quart
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    # constant profiles (1, 2) make F = Y phi exactly
    p = system_problem(op, spectrum, m, constant_profile(1.0), constant_profile(2.0))
    rep = solve_system(p, w, spectrum.Lambda - m.xi1 - 0.1)
    err1 = x_norm(rep.u1.values - 10.0 * m.y[0] * phi, phi)
    err2 = x_norm(rep.u2.values - 10.0 * m.y[1] * phi, phi)
    ok = err1 <= 1e-6 and err2 <= 1e-6
    verdict(7, ok, f"||U - 10 Y phi||_X componentwise = ({err1:.3g}, {err2:.3g})")


def test_criterion_08_system_suite(quart):
    _, op, spectrum, w = quart
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    nl = rational_profile(1.0, 2.0)
    lam_star = spectrum.Lambda - m.xi1

    worst_gap = 0.0
    worst_cross = -np.inf
    checks = []
    for offset in (-0.1, -0.05, +0.05, +0.1):
        p = system_problem(op, spectrum, m, nl, nl)
        rep = system_two_start(p, w, lam_star + offset)
        checks.append(rep.membership_ok and rep.certified)
        checks.append(rep.violations == 0)
        v2_bound = 2.0 * rep.k_prime / (m.xi1 - m.xi2) + 2.0 * w.c0 * rep.k_prime
        checks.append(x_norm(rep.v2, phi) <= v2_bound)
        worst_gap = max(worst_gap, rep.uniqueness.two_start_gap)

        lo = solve_system(p, w, lam_star + offset, start="lower")
        hi = solve_system(p, w, lam_star + offset, start="upper")
        cu = coupled_uniqueness_check(
            op, (lo.u1.values, lo.u2.values), (hi.u1.values, hi.u2.values), m
        )
        worst_cross = max(worst_cross, cu.cross_term)
    checks.append(worst_gap <= 1e-7)
    checks.append(worst_cross <= 1e-8)
    ok = all(checks)
    verdict(
        8,
        ok,
        f"4 offsets certified; worst two-start gap {worst_gap:.3g}; "
        f"worst cross-term {worst_cross:.3g}",
    )


def test_criterion_09_diagonalization_crosscheck(quart):
    _, op, spectrum, w = quart
    phi = spectrum.phi.values
    m = analyze_matrix(0.0, 1.0, 4.0, 0.0)
    mu = spectrum.Lambda - m.xi1 - 0.1
    # u-independent data F = (phi, 3 phi)
    p = system_problem(op, spectrum, m, constant_profile(1.0), constant_profile(3.0))
    rep = solve_system(p, w, mu, tol_x=1e-10)
    u1, u2 = block_solve(op, m, mu, phi, 3.0 * phi)
    err1 = x_norm(rep.u1.values - u1, phi)
    err2 = x_norm(rep.u2.values - u2, phi)
    ok = err1 <= 1e-8 and err2 <= 1e-8
    verdict(9, ok, f"X-norm disagreement vs block solve = ({err1:.3g}, {err2:.3g})")


def test_criterion_10_cli_contract(tmp_path):
    golden = {
        "mode": "linear",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 400},
        "f": {"kind": "phi_plus_phi2", "coeff": 0.5},
        "sweep": {"from_offset": -0.1, "to_offset": 0.1, "steps": 8},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(golden))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", str(cfg), "--out", str(out_a)])
    code_b = main(["run", str(cfg), "--out", str(out_b)])
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("sweep.csv", "spectrum.json")
    )

    # crafted failures: schema error -> 2, numerical failure -> 3,
    # uncertified rows under require_certificates -> 4
    bad_schema = dict(golden)
    bad_schema["mode"] = "quadratic"
    f2 = tmp_path / "bad_schema.json"
    f2.write_text(json.dumps(bad_schema))
    code2 = main(["run", str(f2), "--out", str(tmp_path / "o2")])

    bad_numeric = dict(golden)
    bad_numeric["mode"] = "semilinear"
    bad_numeric.pop("f")
    bad_numeric.pop("sweep")
    bad_numeric["nonlinearity"] = {"kind": "rational", "kappa": 1.0, "K": 2.0}
    bad_numeric["mu_offsets"] = [-1.5]
    f3 = tmp_path / "bad_numeric.json"
    f3.write_text(json.dumps(bad_numeric))
    code3 = main(["run", str(f3), "--out", str(tmp_path / "o3")])

    uncertified = dict(golden)
    uncertified.pop("sweep")
    uncertified["mu_offsets"] = [-2.5]
    uncertified["require_certificates"] = True
    f4 = tmp_path / "uncertified.json"
    f4.write_text(json.dumps(uncertified))
    code4 = main(["run", str(f4), "--out", str(tmp_path / "o4")])

    ok = (
        code_a == 0 and code_b == 0 and identical
        and code2 == 2 and code3 == 3 and code4 == 4
    )
    verdict(
        10,
        ok,
        f"golden runs exit (0, 0), bit-identical={identical}; "
        f"failure configs exit ({code2}, {code3}, {code4})",
    )
