"""The verified resolvent solve: bit-identity, solve counts and failure modes.

``DiscreteOperator.solve_shifted(mu, f)`` eliminates ``T - mu`` with one
LAPACK gtsv per call and keeps no factorization.  That elimination is the
package's only one: the Newton steps and the window estimate's block
solves make it too, which the count below pins per ``groundstate run``,
next to the ``solve_shifted`` calls of two-start fixed-point runs.  Two
references are kept here only as oracles: the plain ``solve_banded`` path
(for a (1, 1) band scipy runs gtsv), and gttrf LU factors with a gttrs
back-substitution; both perform the same pivoted elimination, so each
must agree with ``solve_shifted`` bit for bit.
"""

import importlib
import json
import pkgutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracles import eigenpairs
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

import groundstate
from groundstate import RadialPotential, assemble, eigenvalues, make_grid
from groundstate import groundstate_space, spectral
from groundstate.errors import SingularResolvent
from groundstate.experiment_cli import main

QUARTIC_3D = RadialPotential(lambda r: 1.0 + r**4, name="quartic3d")
QUARTIC_1D = RadialPotential(lambda r: r**4, name="quartic1d")


def reference_solve(op, mu: float, f: np.ndarray) -> np.ndarray:
    """The former solve_shifted: fresh (1, 1)-banded LU on every call."""
    ab = np.zeros((3, op.dim))
    ab[0, 1:] = op.offdiag
    ab[1, :] = op.diag - mu
    ab[2, :-1] = op.offdiag
    return op.extend(solve_banded((1, 1), ab, op.restrict(f)))


def factored_solve(op, mu: float, f: np.ndarray) -> np.ndarray:
    """gttrf LU factors of T - mu, then one gttrs back-substitution against them."""
    dl, d, du, du2, ipiv, info = dgttrf(op.offdiag, op.diag - mu, op.offdiag)
    assert info == 0
    x, info = dgttrs(dl, d, du, du2, ipiv, op.restrict(f))
    assert info == 0
    return op.extend(x)


def row_interchanges(op, mu: float) -> int:
    ipiv = dgttrf(op.offdiag, op.diag - mu, op.offdiag)[4]
    return int(np.count_nonzero(ipiv != np.arange(1, op.dim + 1)))


@pytest.mark.parametrize(
    "space_dim, r_max, pot",
    [(3, 3.2, QUARTIC_3D), (1, 4.0, QUARTIC_1D)],
    ids=["N3-radial", "N1-even"],
)
def test_solve_shifted_is_bit_identical_to_banded_reference(space_dim, r_max, pot):
    # N1-even is sector 0 of the line: the sqrt(2) fold at the half-weight origin
    op = assemble(make_grid(space_dim, r_max, 300), pot)
    lam = float(eigenvalues(op.diag, op.offdiag, 1)[0])
    rng = np.random.default_rng(7)
    for mu in (lam - 0.1, lam + 0.1):
        if mu > lam:
            assert row_interchanges(op, mu) > 0  # the pivoted path is exercised
        for _ in range(3):
            f = rng.standard_normal(len(op.grid.r))
            # repeated calls at one shift must not drift either
            assert np.array_equal(op.solve_shifted(mu, f), reference_solve(op, mu, f))


OPERATORS = {
    "N3-radial": assemble(make_grid(3, 3.2, 300), QUARTIC_3D),
    "N1-even": assemble(make_grid(1, 4.0, 300), QUARTIC_1D),
}
LOWEST = {name: eigenvalues(op.diag, op.offdiag, 6) for name, op in OPERATORS.items()}


@settings(max_examples=40)
@given(
    name=st.sampled_from(sorted(OPERATORS)),
    region=st.sampled_from(["below the lowest", "between the lowest two", "above the second"]),
    place=st.floats(0.01, 0.99),
    upper=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_shifted_is_bit_identical_to_held_factors(name, region, place, upper, seed):
    # shifts below the operator's lowest eigenvalue, in the gap above it
    # and between higher eigenvalues, where the pivoted elimination
    # interchanges rows
    op, vals = OPERATORS[name], LOWEST[name]
    if region == "below the lowest":
        mu = vals[0] - place * (vals[1] - vals[0])
    elif region == "between the lowest two":
        mu = vals[0] + place * (vals[1] - vals[0])
    else:
        mu = vals[upper - 1] + place * (vals[upper] - vals[upper - 1])
    f = np.random.default_rng(seed).standard_normal(len(op.grid.r))
    assert np.array_equal(op.solve_shifted(float(mu), f), factored_solve(op, float(mu), f))


def test_verified_solve_memory_is_pinned_in_bytes():
    # tracemalloc transient of one solve_shifted call on the linear_fine
    # bench problem (N = 3, q = 1 + r^4, r_max 3.2, n = 2400), above the
    # memory held before the call, at shifts on both sides of Lambda: at
    # most 77288 bytes, 4 n-vectors of doubles (gtsv's right-hand side,
    # which becomes x, and its dm, dl and du).  When the right-hand side
    # was eliminated from a copy of scale * f it was 96584 bytes (5 n-vectors)
    summary = spectral.summarize_spectrum(make_grid(3, 3.2, 2400), QUARTIC_3D)
    op, phi, lam, gap = summary.op, summary.phi, summary.Lambda, summary.gap
    f = np.cos(op.grid.r) * phi + 0.3 * phi
    tracing = tracemalloc.is_tracing()
    for frac in (-0.3, -0.01, 0.01, 0.3):
        mu = lam + frac * gap
        op.solve_shifted(mu, f)  # warm-up at this shift
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op.solve_shifted(mu, f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 80_000


def test_nan_right_hand_side_raises_instead_of_returning_nan():
    op = assemble(make_grid(3, 3.2, 200), QUARTIC_3D)
    mu = float(eigenvalues(op.diag, op.offdiag, 1)[0]) - 0.1
    f = np.ones(len(op.grid.r))
    f[17] = np.nan
    with pytest.raises(SingularResolvent):
        op.solve_shifted(mu, f)


def test_overflowing_bound_raises_instead_of_accepting_inf_le_inf():
    # squared norms of 1e300-sized data overflow, so the residual and its
    # bound are both inf; an infinite bound certifies nothing
    op = assemble(make_grid(3, 3.2, 200), QUARTIC_3D)
    vals, vecs = eigenpairs(op, 1)
    with np.errstate(over="ignore"), pytest.raises(SingularResolvent):
        op.solve_shifted(float(vals[0]) - 0.1, 1e300 * vecs[:, 0])


def test_exactly_singular_shift_raises_singular_resolvent():
    base = assemble(make_grid(3, 1.0, 3), QUARTIC_3D)
    # [[1, 1, 0], [1, 2, 1], [0, 1, 1]] has an exactly zero last pivot at mu = 0
    op = replace(base, diag=np.array([1.0, 2.0, 1.0]), offdiag=np.array([1.0, 1.0]))
    f = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        reference_solve(op, 0.0, f)
    with pytest.raises(SingularResolvent, match="singular at mu = 0$"):
        op.solve_shifted(0.0, f)


def test_zero_gtsv_pivot_raises_singular_resolvent_naming_mu(monkeypatch):
    op = assemble(make_grid(3, 3.2, 200), QUARTIC_3D)
    mu = float(eigenvalues(op.diag, op.offdiag, 1)[0]) - 0.1
    f = np.ones(len(op.grid.r))
    real = spectral.dgtsv

    def zero_pivot(*args, **kwargs):
        *lu, _ = real(*args, **kwargs)
        return (*lu, 1)

    monkeypatch.setattr(spectral, "dgtsv", zero_pivot)
    with pytest.raises(SingularResolvent, match=f"singular at mu = {mu:.12g}$"):
        op.solve_shifted(mu, f)
    assert op.solve_unverified(mu, np.zeros_like(f), f) is None


@pytest.mark.parametrize(
    "space_dim, r_max, pot",
    [(3, 3.2, QUARTIC_3D), (1, 4.0, QUARTIC_1D)],
    ids=["N3-radial", "N1-even"],
)
def test_unverified_solve_matches_a_dense_solve(space_dim, r_max, pot):
    # the Newton solve of (L - mu - diag(d)) u = f
    op = assemble(make_grid(space_dim, r_max, 120), pot)
    lam = float(eigenvalues(op.diag, op.offdiag, 1)[0])
    rng = np.random.default_rng(11)
    for mu in (lam - 0.1, lam + 0.1):
        d = rng.uniform(-1.0, 1.0, len(op.grid.r))
        f = rng.standard_normal(len(op.grid.r))
        u = op.solve_unverified(mu, d, f)
        dense = np.diag(op.diag - mu - d) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        x = np.linalg.solve(dense, op.restrict(f))
        assert np.allclose(op.restrict(u), x, rtol=1e-9, atol=1e-9 * np.max(np.abs(x)))
        # with d = 0 it solves what solve_shifted solves, without the check
        plain = op.solve_unverified(mu, np.zeros_like(d), f)
        assert np.allclose(plain, op.solve_shifted(mu, f))


def test_unverified_solve_of_a_singular_matrix_is_none():
    base = assemble(make_grid(3, 1.0, 3), QUARTIC_3D)
    op = replace(base, diag=np.array([1.0, 2.0, 1.0]), offdiag=np.array([1.0, 1.0]))
    assert op.solve_unverified(0.0, np.zeros(3), np.ones(3)) is None
    assert op.solve_unverified(0.0, np.array([0.0, 0.0, -1.0]), np.ones(3)) is not None


def test_window_estimate_zero_pivot_raises_singular_resolvent_naming_mu(monkeypatch):
    grid = make_grid(3, 3.2, 200)
    summary = spectral.summarize_spectrum(grid, QUARTIC_3D)
    mu = summary.Lambda - 0.1
    real = spectral.dgtsv

    def zero_pivot(*args, **kwargs):
        *lu, _ = real(*args, **kwargs)
        return (*lu, 1)

    monkeypatch.setattr(spectral, "dgtsv", zero_pivot)
    with pytest.raises(SingularResolvent, match=f"singular at mu = {mu:.12g}$"):
        groundstate_space.projected_resolvent_norm(
            summary.op, summary.phi, grid.quad_weights, mu
        )


def test_singular_factorization_exits_3_without_output(tmp_path, monkeypatch):
    # a zero pivot in every elimination: the window estimate's first one raises
    real = spectral.dgtsv

    def zero_pivot(*args, **kwargs):
        *lu, _ = real(*args, **kwargs)
        return (*lu, 1)

    monkeypatch.setattr(spectral, "dgtsv", zero_pivot)
    cfg = {
        "mode": "linear",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 200},
        "f": {"kind": "phi"},
        "mu_offsets": [-0.1],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ call counts


_RUN = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
    "grid": {"r_max": 3.2, "n": 200},
    "mu_offsets": [-0.2, -0.05, 0.05, 0.2],
    "output_dir": "call-count-out",
}
_RATIONAL = {"kind": "rational", "kappa": 1.0, "K": 2.0}
_SYSTEM = {"nonlinearity": _RATIONAL, "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0}}
WINDOW_SAMPLES = 8  # estimate_c0_delta0 eliminates T - mu at each of its samples


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("eigen", {}),
        ("linear", {"f": {"kind": "phi_plus_phi2", "coeff": 0.5}}),
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": True}}),
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": False}}),
        ("system", {**_SYSTEM, "solver": {"two_start": True}}),
    ],
    ids=["eigen", "linear", "semilinear-two-start", "semilinear-single", "system-two-start"],
)
def test_run_eliminates_only_through_the_operator(tmp_path, monkeypatch, mode, extra):
    # every gtsv of a run is one DiscreteOperator._eliminate, the window
    # estimate's at least two block solves per sample shift included
    gtsv, eliminations, samples = [], [], []
    real_gtsv = spectral.dgtsv
    real_eliminate = spectral.DiscreteOperator._eliminate
    real_norm = groundstate_space.projected_resolvent_norm

    def counting_gtsv(*args, **kwargs):
        gtsv.append(None)
        return real_gtsv(*args, **kwargs)

    def counting_eliminate(self, mu, d, b):
        eliminations.append(None)
        return real_eliminate(self, mu, d, b)

    def window_eliminations(*args):
        before = len(eliminations)
        value = real_norm(*args)
        samples.append(len(eliminations) - before)
        return value

    monkeypatch.setattr(spectral, "dgtsv", counting_gtsv)
    monkeypatch.setattr(spectral.DiscreteOperator, "_eliminate", counting_eliminate)
    monkeypatch.setattr(groundstate_space, "projected_resolvent_norm", window_eliminations)
    cfg = {**_RUN, "mode": mode, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(gtsv) == len(eliminations)
    assert len(samples) == WINDOW_SAMPLES and min(samples) >= 2


def test_only_spectral_binds_lapack_routines():
    # no module holds gttrf/gttrs LU factors or calls LAPACK beside spectral
    bound = {}
    for info in pkgutil.iter_modules(groundstate.__path__):
        module = importlib.import_module(f"groundstate.{info.name}")
        bound[info.name] = {
            name for name, value in vars(module).items() if type(value).__name__ == "fortran"
        }
    assert bound.pop("spectral") == {"dgtsv", "dptsv", "dstebz", "dstein"}
    assert not any(bound.values())


@pytest.fixture()
def solve_calls(monkeypatch):
    calls = []
    real = spectral.DiscreteOperator.solve_shifted

    def counting(self, mu, f):
        calls.append(None)
        return real(self, mu, f)

    monkeypatch.setattr(spectral.DiscreteOperator, "solve_shifted", counting)
    return calls


@pytest.mark.parametrize(
    "mode, extra, solves",
    [
        ("semilinear", {"nonlinearity": _RATIONAL, "solver": {"two_start": True}}, 24),
        ("system", {**_SYSTEM, "solver": {"two_start": True}}, 48),
    ],
    ids=["semilinear-two-start", "system-two-start"],
)
def test_run_pins_the_solves_of_the_mixed_iteration(tmp_path, solve_calls, mode, extra, solves):
    """solve_shifted calls over one two-start run of 4 shifts.

    Before the secant-mixed steps, with undamped Picard steps only, the
    same runs made 112 (semilinear) and 242 (system) calls; a change that
    loses the acceleration fails here.  With secant-mixed steps they made
    56 and 122.  With Newton steps each start makes 3 verified map
    applications (sweep 1, the closing sweep and the image of the limit),
    one solve each for a scalar and two for a system: 24 and 48 in all,
    because the Newton solves are search directions, not verified.
    """
    cfg = {**_RUN, "mode": mode, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(solve_calls) == solves
