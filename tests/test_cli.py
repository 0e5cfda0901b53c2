"""End-to-end command line tests driven through main() in-process."""

import argparse
import csv
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

import groundstate
from groundstate import experiment_cli
from groundstate.experiment_cli import (
    COLUMNS,
    CONFIG_VALIDATOR,
    DUMP_ROWS,
    SCHEMA,
    _cell,
    _dump_profiles,
    _sweep_line,
    _write_sweep,
    f17,
    main,
)


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "mode": "linear",
        "space_dim": 3,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 3.2, "n": 300},
        "f": {"kind": "phi"},
        "sweep": {"from_offset": -0.1, "to_offset": 0.1, "steps": 8},
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_linear_run_writes_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    for name in ("spectrum.json", "sweep.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    meta = json.loads((out_a / "spectrum.json").read_text())
    assert meta["mode"] == "linear"
    assert meta["grid"]["n"] == 300
    assert meta["Lambda"] == pytest.approx(4.7996730298, abs=1e-3)
    assert len(meta["config_hash"]) == 16

    rows = read_rows(out_a / "sweep.csv")
    assert len(rows) == 8
    assert list(rows[0].keys()) == COLUMNS
    for row in rows:
        offset = float(row["offset"])
        # f = phi solves exactly: u1 = 1/(Lambda - mu) = -1/offset
        assert float(row["u1_component"]) == pytest.approx(-1.0 / offset, rel=1e-8)
        assert row["in_window"] == "1"
        assert row["certified"] == "1"
        if offset < 0:
            assert row["bound_lo"] != "" and row["bound_hi"] == ""
            assert row["branch"] == "MP"
        else:
            assert row["bound_hi"] != "" and row["bound_lo"] == ""
            assert row["branch"] == "AMP"


def test_seed_and_grid_scale_enter_the_hash(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", mode="eigen")
    cfg_d = {}
    for tag, extra in (("base", []), ("seeded", ["--seed", "7"]), ("fine", ["--grid-scale", "2.0"])):
        out = tmp_path / tag
        assert main(["run", str(cfg), "--out", str(out), *extra]) == 0
        cfg_d[tag] = json.loads((out / "spectrum.json").read_text())
    assert cfg_d["base"]["config_hash"] != cfg_d["seeded"]["config_hash"]
    assert cfg_d["base"]["config_hash"] != cfg_d["fine"]["config_hash"]
    assert cfg_d["seeded"]["seed"] == 7
    assert cfg_d["fine"]["grid"]["n"] == 600
    # eigen mode emits a header-only sweep
    sweep = (tmp_path / "base" / "sweep.csv").read_text().splitlines()
    assert sweep == [",".join(COLUMNS)]
    assert cfg_d["base"]["window_rule"] == "delta0"


def write_offsets_config(path: Path, **overrides) -> Path:
    """write_config with the overrides' mu_offsets list in place of the sweep."""
    cfg = json.loads(write_config(path, **overrides).read_text())
    del cfg["sweep"]
    path.write_text(json.dumps(cfg))
    return path


def test_dump_solutions_writes_profiles(tmp_path):
    cfg = write_offsets_config(
        tmp_path / "cfg.json",
        mu_offsets=[-0.1, 0.05],
        dump_solutions=[-0.1],
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    dump = out / "solution_-0.1.csv"
    assert dump.exists()
    lines = dump.read_text().splitlines()
    assert lines[0] == "r,phi,u"
    assert len(lines) == 1 + 300
    assert not (out / "solution_0.05.csv").exists()


def test_dumps_that_would_share_a_file_name_exit_2(tmp_path, capsys, monkeypatch):
    # both offsets print as 0.1 under :g; the run once kept the second
    # profile in solution_0.1.csv and exited 0
    rows, real = [], experiment_cli.certify_theorem1

    def counting(*args):
        rows.append(None)
        return real(*args)

    monkeypatch.setattr(experiment_cli, "certify_theorem1", counting)
    cfg = write_offsets_config(
        tmp_path / "cfg.json",
        grid={"r_max": 3.2, "n": 50},
        mu_offsets=[0.1, 0.1000001],
        dump_solutions=[0.1, 0.1000001],
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dump_solutions[0] = 0.1 and dump_solutions[1] = 0.1000001" in err
    assert "solution_0.1.csv" in err
    assert rows == []
    assert not (tmp_path / "out").exists()


MULTI_DUMP_CONFIGS = {
    "linear": dict(mu_offsets=[-0.1, -0.05, 0.05, 0.1]),
    "system": dict(
        mode="system",
        mu_offsets=[-0.2, 0.05],
        nonlinearity={"kind": "rational", "kappa": 1.0, "K": 2.0},
        matrix={"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        solver={"two_start": False},
    ),
}


@pytest.mark.parametrize("mode", sorted(MULTI_DUMP_CONFIGS))
def test_each_dump_of_a_run_matches_a_run_dumping_only_it(tmp_path, mode):
    # every dump of a run reuses one r,phi text, formatted once
    overrides = MULTI_DUMP_CONFIGS[mode]
    offsets = overrides["mu_offsets"]

    def run(name: str, dump: list[float]) -> Path:
        cfg = write_offsets_config(tmp_path / f"{name}.json", dump_solutions=dump, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
        return tmp_path / name

    every = run("every", offsets)
    for off in offsets:
        name = f"solution_{off:g}.csv"
        alone = run(f"only{off:g}", [off])
        assert sorted(f.name for f in alone.glob("solution_*")) == [name]
        assert (every / name).read_bytes() == (alone / name).read_bytes()


def test_report_copies_cells_verbatim(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    curves = tmp_path / "curves"
    assert main(["report", str(out / "sweep.csv"), "--out", str(curves)]) == 0

    sweep_rows = read_rows(out / "sweep.csv")
    gsp_rows = read_rows(curves / "gsp_curve.csv")
    blow_rows = read_rows(curves / "blowup_curve.csv")
    assert len(gsp_rows) == len(blow_rows) == len(sweep_rows)
    for src, gsp, blow in zip(sweep_rows, gsp_rows, blow_rows):
        for col in ("mu", "offset", "branch", "min_ratio", "max_ratio", "certified"):
            assert gsp[col] == src[col]
        for col in ("mu", "offset", "x_norm", "xnorm_bound"):
            assert blow[col] == src[col]


def test_report_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "not_a_sweep.csv"
    bad.write_text("mu,offset\n1.0,0.1\n")
    assert main(["report", str(bad), "--out", str(tmp_path / "curves")]) == 2


def test_config_errors_exit_2(tmp_path):
    # schema violation: output_dir missing
    incomplete = tmp_path / "incomplete.json"
    cfg = json.loads(write_config(tmp_path / "tmp.json").read_text())
    del cfg["output_dir"]
    incomplete.write_text(json.dumps(cfg))
    assert main(["run", str(incomplete)]) == 2

    # unparseable JSON
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled)]) == 2

    # missing file
    assert main(["run", str(tmp_path / "absent.json")]) == 2

    # mu = Lambda is singular and refused up front
    zero = write_config(tmp_path / "zero.json", mu_offsets=[0.0])
    cfg = json.loads(zero.read_text())
    del cfg["sweep"]
    zero.write_text(json.dumps(cfg))
    assert main(["run", str(zero)]) == 2


def test_config_error_base_holds_exactly_the_exit_2_errors():
    # main maps ConfigError to exit 2 and every other GroundstateError to 3
    errors = groundstate.errors
    config = {
        errors.ConfigError, errors.MalformedInput, errors.NonPositivePotential,
        errors.NotIncreasing, errors.NotCooperative, errors.UnboundedSearch,
    }
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    assert {c for c in classes if issubclass(c, errors.ConfigError)} == config
    assert groundstate.ConfigError is errors.ConfigError


def _tiny_coupling(coupling: float) -> dict:
    return {
        "mode": "system",
        "grid": {"r_max": 3.2, "n": 60},
        "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0},
        "matrix": {"a": 0.0, "b": coupling, "c": coupling, "d": 0.0},
    }


@pytest.mark.parametrize(
    "changes, message",
    [
        # a requested profile that no shift produces is named, not skipped
        ({"dump_solutions": [-0.1, -0.2]}, "dump_solutions[1] = -0.2 matches no mu offset"),
        # bc underflows to 0: xi1 = xi2, y2 = 0 and P^{-1} would divide by zero
        (_tiny_coupling(1e-300), "need xi1 > xi2 and y > 0"),
        (_tiny_coupling(1e-200), "need xi1 > xi2 and y > 0"),
        # JSON admits NaN and Infinity; the config's number check names the key
        # (a NaN r_max was reported as "(r_max too large)")
        ({"grid": {"r_max": float("nan"), "n": 120}}, "error: grid.r_max = nan must be finite"),
        ({"grid": {"spectral_scale": float("nan")}}, "grid.spectral_scale = nan"),
        ({"grid": {"spectral_scale": 10, "truncation_factor": float("nan")}},
         "grid.truncation_factor = nan"),
        ({"grid": {"spectral_scale": 10, "points_per_unit": float("nan")}},
         "grid.points_per_unit = nan"),
        ({"grid": {"spectral_scale": 10, "points_per_unit": float("inf")}},
         "grid.points_per_unit = inf"),
        # q = 1 + r**2.5 reaches 4e12 only beyond the r = 1e4 search cap
        ({"potential": {"kind": "power", "c": 1.0, "s": 2.5}, "grid": {"spectral_scale": 1e12}},
         "grid.spectral_scale = 1e+12"),
        # b*(xi1 - a) overflows in A y, so the identity residual is NaN
        (
            {
                "mode": "system", "grid": {"r_max": 3.2, "n": 120},
                "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0},
                "matrix": {"a": 0.0, "b": 1e300, "c": 1e-280, "d": 0.0},
            },
            "error: eigendecomposition identities lost precision (err nan)",
        ),
        # g/u overflows at u = 1e-3, the validation lattice's smallest positive point
        (
            {"mode": "semilinear", "nonlinearity": {"kind": "constant", "g": 1e308}},
            "error: nonlinearity: g/u is not finite at u = 0.001",
        ),
        (
            {
                "mode": "semilinear",
                "nonlinearity": {"kind": "rational", "kappa": 1e-300, "K": 1e308},
            },
            "error: nonlinearity: g/u is not finite at u = 0.001",
        ),
        (
            {**_tiny_coupling(1.0), "nonlinearity2": {"kind": "constant", "g": 1e308}},
            "error: nonlinearity2: g/u is not finite at u = 0.001",
        ),
    ],
    ids=[
        "dump_offset", "coupling_1e-300", "coupling_1e-200", "r_max_nan", "spectral_scale_nan",
        "truncation_factor_nan", "points_per_unit_nan", "points_per_unit_inf",
        "spectral_scale_unreachable", "matrix_identities_overflow", "constant_g_1e308",
        "rational_K_1e308", "system_nonlinearity2_g_1e308",
    ],
)
def test_config_no_run_can_honor_exits_2(tmp_path, capsys, changes, message):
    cfg = write_offsets_config(tmp_path / "cfg.json", mu_offsets=[-0.1, 0.05], **changes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


def write_table(path: Path, q_of_r) -> Path:
    radii = np.linspace(0.0, 4.0, 41)
    path.write_text("r,q\n" + "".join(f"{r},{q_of_r(i, r)}\n" for i, r in enumerate(radii)))
    return path


def test_nonpositive_table_potential_exits_2(tmp_path, capsys):
    table = write_table(tmp_path / "q.csv", lambda i, r: r**4 - 2.0)
    cfg = write_config(tmp_path / "cfg.json", potential={"kind": "table", "path": str(table)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "q(r) <= 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_nonfinite_table_potential_exits_2(tmp_path, capsys):
    table = write_table(tmp_path / "q.csv", lambda i, r: "nan" if i == 5 else 1.0 + r**4)
    cfg = write_config(tmp_path / "cfg.json", potential={"kind": "table", "path": str(table)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_decreasing_table_potential_exits_2(tmp_path, capsys):
    table = write_table(tmp_path / "q.csv", lambda i, r: 10.0 / (1.0 + r))
    cfg = write_config(
        tmp_path / "cfg.json", potential={"kind": "table", "path": str(table), "r0": 0.0}
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "decreases" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_nonfinite_grid_scale_exits_2(tmp_path, capsys, scale):
    cfg = write_config(tmp_path / "cfg.json", mode="eigen")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--grid-scale", scale]) == 2
    assert "--grid-scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_does_not_load_scipy_sparse():
    # scipy.sparse would add to the start-up cost paid on every CLI call
    src = str(Path(groundstate.__file__).resolve().parent.parent)
    code = (
        "import sys, groundstate.experiment_cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_numerical_failure_exits_3(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        mode="semilinear",
        nonlinearity={"kind": "rational", "kappa": 1.0, "K": 2.0},
        mu_offsets=[-1.0],  # far outside the semilinear window
    )
    cfg = json.loads(cfg_path.read_text())
    del cfg["sweep"]
    del cfg["f"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_uncertified_rows_exit_4_but_write_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        mu_offsets=[-2.5],  # outside delta0: solve works, certificate does not
        require_certificates=True,
    )
    cfg = json.loads(cfg_path.read_text())
    del cfg["sweep"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 4
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 1
    assert rows[0]["certified"] == "0"
    assert rows[0]["in_window"] == "0"
    assert (out / "spectrum.json").exists()


def test_semilinear_run_reports_two_start(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        mode="semilinear",
        nonlinearity={"kind": "rational", "kappa": 1.0, "K": 2.0},
        mu_offsets=[-0.1, 0.05],
    )
    cfg = json.loads(cfg_path.read_text())
    del cfg["sweep"]
    del cfg["f"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [row["branch"] for row in rows] == ["MP", "AMP"]
    for row in rows:
        assert row["certified"] == "1"
        assert float(row["two_start_gap"]) <= 1e-7
        assert row["bo_residual"] != ""
        assert int(row["violations"]) == 0
    meta = json.loads((out / "spectrum.json").read_text())
    assert meta["window_rule"] == "min(delta0, kappa/(2*c0*K))"


def test_system_run_extras_and_bounds(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        mode="system",
        matrix={"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        nonlinearity={"kind": "rational", "kappa": 1.0, "K": 2.0},
        mu_offsets=[-0.1],
        solver={"two_start": False},
        grid={"r_max": 3.2, "n": 200},
    )
    cfg = json.loads(cfg_path.read_text())
    del cfg["sweep"]
    del cfg["f"]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.json").read_text())
    assert meta["xi1"] == pytest.approx(2.0, abs=1e-12)
    assert meta["xi2"] == pytest.approx(-2.0, abs=1e-12)
    assert meta["lambda_star"] == pytest.approx(meta["Lambda"] - 2.0, abs=1e-10)
    assert meta["y"] == pytest.approx([1.0, 2.0])
    assert meta["kappa_prime"] == pytest.approx(0.75)
    assert meta["k_prime"] == pytest.approx(1.5)
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 1
    assert rows[0]["certified"] == "1"
    assert float(rows[0]["v2_xnorm"]) <= float(rows[0]["v2_bound"])


@pytest.mark.parametrize(
    "grid, key",
    [
        ({"r_max": 3.2, "n": 4}, "grid.n"),
        # build_grid clamps this to n = 2
        ({"spectral_scale": 10, "points_per_unit": 0.5}, "grid.points_per_unit"),
    ],
    ids=["direct", "spectral_scale"],
)
def test_too_small_grid_exits_2_naming_its_key(tmp_path, capsys, grid, key):
    cfg = write_config(tmp_path / "cfg.json", grid=grid)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and "needs at least 6" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r_max", [1e200, 1e100])
def test_overflowing_grid_exits_2(tmp_path, capsys, r_max):
    # 1e200 overflows the quadrature weights, 1e100 only q = 1 + r**4
    cfg = write_config(tmp_path / "cfg.json", grid={"r_max": r_max, "n": 50})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "space_dim, r_max, message",
    [
        # 2/h**2 overflows: an overflow warning in assemble, then stebz failed (exit 3)
        (1, 1e-160, "grid.r_max = 1e-160 and grid.n = 10"),
        (2, 1e-155, "grid.r_max = 1e-155 and grid.n = 10"),
        # h**2 underflows to 0: ZeroDivisionError in assemble (exit 3)
        (1, 1e-170, "grid.r_max = 1e-170 and grid.n = 10"),
        # 2/h**2 is finite but its square, which stebz forms, is not (exit 3)
        (1, 1e-100, "grid.r_max = 1e-100 and grid.n = 10"),
        # the weights underflow to 0, once reported as "(r_max too large)"
        (3, 1e-160, "grid.r_max = 1e-160 is too small (a weight underflows to 0)"),
    ],
    ids=["N1_overflow", "N2_overflow", "N1_h2_zero", "N1_square", "N3_weights"],
)
def test_grid_too_fine_for_double_precision_exits_2(tmp_path, capsys, space_dim, r_max, message):
    cfg = write_config(
        tmp_path / "cfg.json", mode="eigen", space_dim=space_dim, grid={"r_max": r_max, "n": 10}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


MODE_BLOCKS = {
    "linear": {"f": {"kind": "phi"}},
    "semilinear": {"nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0}},
    "system": {
        "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0},
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
    },
}


@pytest.mark.parametrize(
    "mode, shifts, message",
    [
        # once ZeroDivisionError (exit 3)
        ("linear", {"mu_offsets": [0.5, -0.1]}, "mu_offsets[1] = -0.1 vanishes"),
        ("linear", {"sweep": {"from_offset": -0.1, "to_offset": 0.1, "steps": 2}},
         "sweep offset -0.1 vanishes"),
        # once "|Lambda - mu| = 0 outside the certified window" (exit 3)
        ("semilinear", {"mu_offsets": [0.5, -0.1]}, "mu_offsets[1] = -0.1 vanishes"),
        # once an overflow warning in system_problem, then exit 3
        ("system", {"mu_offsets": [0.5, -0.1]}, "mu_offsets[1] = -0.1 vanishes"),
    ],
    ids=["linear", "linear_sweep", "semilinear", "system"],
)
def test_offset_that_vanishes_against_the_shift_origin_exits_2(
    tmp_path, capsys, mode, shifts, message
):
    # Lambda = 1.09e152 on this grid, so Lambda - 0.1 == Lambda
    cfg = {
        "mode": mode,
        "space_dim": 1,
        "potential": {"kind": "power", "c": 1.0, "s": 4.0},
        "grid": {"r_max": 1.5e-76, "n": 10},
        "output_dir": str(tmp_path / "out"),
        **MODE_BLOCKS[mode],
        **shifts,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "shift origin 1.09476e+152" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("s", [2.0, 1.5])
def test_subquadratic_power_potential_exits_2(tmp_path, capsys, s):
    # c + r**s lies in the admissible class exactly when s > 2
    cfg = write_config(tmp_path / "cfg.json", potential={"kind": "power", "c": 1.0, "s": s})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "potential.s" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"mu_offsets": [float("inf")]}, "error: mu_offsets[0] = inf must be finite"),
        ({"mu_offsets": None,
          "sweep": {"from_offset": float("-inf"), "to_offset": 0.1, "steps": 2}},
         "error: sweep.from_offset = -inf must be finite"),
        # finite ends, but the step between them overflows
        ({"mu_offsets": None, "sweep": {"from_offset": -1e308, "to_offset": 1e308, "steps": 3}},
         "error: mu offsets must be finite"),
        ({"mode": "system", "matrix": {"a": 0.0, "b": float("inf"), "c": 1.0, "d": 0.0},
          "nonlinearity": {"kind": "constant", "g": 1.0}}, "error: matrix.b = inf must be finite"),
        # numpy refused 10**20 steps with a ValueError traceback
        ({"mu_offsets": None, "sweep": {"from_offset": -0.1, "to_offset": 0.1, "steps": 10**20}},
         "sweep.steps = 100000000000000000000 asks for more shifts than a numpy array holds"),
        # an integer past the double range failed to cast inside np.linspace
        ({"mu_offsets": None, "sweep": {"from_offset": -10**400, "to_offset": 0.1, "steps": 2}},
         "sweep.from_offset = -1e+400 must be finite"),
        # the rest exited 3 with an OverflowError
        ({"mu_offsets": [-0.05, 10**400]}, "mu_offsets[1] = 1e+400 must be finite"),
        ({"grid": {"r_max": 3.2, "n": 10**400}}, "grid.n = 1e+400 must be finite"),
        ({"grid": {"r_max": 10**400, "n": 120}}, "grid.r_max = 1e+400 must be finite"),
        ({"grid": {"spectral_scale": 10**400}}, "grid.spectral_scale = 1e+400 must be finite"),
        ({"grid": {"spectral_scale": 10, "points_per_unit": 10**400}},
         "grid.points_per_unit = 1e+400 must be finite"),
        ({"grid": {"spectral_scale": 10, "truncation_factor": 10**400}},
         "grid.truncation_factor = 1e+400 must be finite"),
    ],
    ids=[
        "offset", "sweep_end", "sweep_overflow", "matrix", "sweep_steps_huge", "sweep_end_huge", "offset_huge",
        "n_huge", "r_max_huge", "spectral_scale_huge", "points_per_unit_huge",
        "truncation_factor_huge",
    ],
)
def test_infinite_config_numbers_exit_2(tmp_path, capsys, changes, message):
    # JSON parsing admits Infinity; such a shift or coupling is a config error
    cfg = json.loads(write_config(tmp_path / "base.json").read_text())
    cfg = _invalid(cfg, **{"sweep": None, "mu_offsets": [-0.1], **changes})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_EXP_DECAY = {"kind": "exp_decay", "kappa": 1.0, "K": 2.0}
_SEMILINEAR = {"mode": "semilinear", "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0}}


@pytest.mark.parametrize(
    "changes, key",
    [
        # r >= nan is false everywhere, so the class check was skipped
        ({"potential": {"kind": "power", "c": 1.0, "s": 4.0, "r0": float("nan")}},
         "potential.r0 = nan"),
        ({"potential": {"kind": "power", "c": 1.0, "s": 4.0, "r0": float("inf")}},
         "potential.r0 = inf"),
        ({**_SEMILINEAR, "nonlinearity": {**_EXP_DECAY, "s": float("nan")}},
         "nonlinearity.s = nan"),
        ({**_SEMILINEAR, "nonlinearity": {**_EXP_DECAY, "s": float("inf")}},
         "nonlinearity.s = inf"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "constant", "g": float("inf")}},
         "nonlinearity.g = inf"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": float("inf")}},
         "nonlinearity.K = inf"),
        ({"mode": "system", "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
          "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0},
          "nonlinearity2": {"kind": "rational", "kappa": 1.0, "K": float("inf")}},
         "nonlinearity2.K = inf"),
        ({"f": {"kind": "phi_plus_phi2", "coeff": float("nan")}}, "f.coeff = nan"),
        ({"f": {"kind": "phi_plus_phi2", "coeff": float("inf")}}, "f.coeff = inf"),
        # an infinite tolerance stopped every row after one sweep
        ({**_SEMILINEAR, "solver": {"tol_x": float("inf")}}, "solver.tol_x = inf"),
        # JSON integers past the double range exited 3 with an OverflowError
        ({"potential": {"kind": "power", "c": 10**400, "s": 4.0}}, "potential.c = 1e+400"),
        ({"potential": {"kind": "power", "c": 1.0, "s": 10**400}}, "potential.s = 1e+400"),
        ({"potential": {"kind": "power", "c": 1.0, "s": 4.0, "r0": 10**400}},
         "potential.r0 = 1e+400"),
        ({"f": {"kind": "phi_plus_phi2", "coeff": 10**400}}, "f.coeff = 1e+400"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 10**400}},
         "nonlinearity.K = 1e+400"),
        ({"mode": "system", "matrix": {"a": 0.0, "b": 10**400, "c": 4.0, "d": 0.0},
          "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0}}, "matrix.b = 1e+400"),
        ({**_SEMILINEAR, "solver": {"tol_x": 10**400}}, "solver.tol_x = 1e+400"),
        ({"dump_solutions": [-10**400]}, "dump_solutions[0] = -1e+400"),
    ],
    ids=[
        "r0_nan", "r0_inf", "exp_decay_s_nan", "exp_decay_s_inf", "constant_g_inf",
        "rational_K_inf", "nonlinearity2_K_inf", "coeff_nan", "coeff_inf", "tol_x_inf",
        "c_huge", "s_huge", "r0_huge", "coeff_huge", "K_huge", "matrix_b_huge", "tol_x_huge",
        "dump_huge",
    ],
)
def test_nonfinite_config_numbers_exit_2_naming_their_key(tmp_path, capsys, changes, key):
    cfg = write_offsets_config(
        tmp_path / "cfg.json", grid={"r_max": 3.2, "n": 120}, mu_offsets=[-0.05, 0.05], **changes
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_literal_too_long_to_read_exits_2(tmp_path, capsys):
    # json refuses an integer literal of more than 4300 digits with a plain
    # ValueError (Python's int-to-str digit limit), which ended in a traceback
    text = write_config(tmp_path / "base.json").read_text()
    path = tmp_path / "cfg.json"
    path.write_text(text[:-1] + ', "seed": ' + "1" * 5000 + "}")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_2_like_a_negative_config_seed(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", mode="eigen")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "--seed = -1" in capsys.readouterr().err
    seeded = write_config(tmp_path / "seeded.json", mode="eigen", seed=-1)
    assert main(["run", str(seeded), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_linalg_error_exits_3(tmp_path, capsys):
    # q = 1 + r**400 overflows the band; the Cholesky factorization gives up
    cfg = write_config(
        tmp_path / "cfg.json", potential={"kind": "power", "c": 1.0, "s": 400.0}
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: LinAlgError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_coupling_fails_the_window_without_an_overflow_warning(tmp_path, capsys):
    # y = (1e300, 1e-10): the vector groundstate identity holds, but the
    # residual of its first row is ~1e288, whose square overflowed in Grid.norm
    cfg = write_offsets_config(
        tmp_path / "cfg.json",
        mode="system",
        grid={"r_max": 3.2, "n": 120},
        nonlinearity={"kind": "rational", "kappa": 1.0, "K": 2.0},
        matrix={"a": 0.0, "b": 1e300, "c": 1e-320, "d": 0.0},
        mu_offsets=[-0.05, 0.05],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: |Lambda* - mu|")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "grid, flags, key",
    [
        ({"r_max": 3.2, "n": 10**20}, [], "grid.n"),
        ({"spectral_scale": 10, "points_per_unit": 1e300}, [], "grid.points_per_unit"),
        ({"r_max": 3.2, "n": 300}, ["--grid-scale", "1e300"], "--grid-scale"),
    ],
    ids=["n", "points_per_unit", "grid_scale"],
)
def test_grid_past_numpy_size_limit_exits_2_naming_its_key(tmp_path, capsys, grid, flags, key):
    # each node count is above intp.max // 8, which numpy refuses before allocating
    cfg = write_config(tmp_path / "cfg.json", mode="eigen", grid=grid)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert key in err and "more than a numpy array holds" in err
    assert not (tmp_path / "out").exists()


def test_grid_search_past_the_double_range_of_q_runs(tmp_path):
    # q = 0.3 + r**1e8 overflows to inf at the search's first doubling, r = 2;
    # inf meets any finite target, so the search finds its radius
    # without a RuntimeWarning (which tier-1 turns into an error)
    cfg = write_config(
        tmp_path / "cfg.json",
        potential={"kind": "power", "c": 0.3, "s": 1e8, "r0": 1e160},
        grid={"spectral_scale": 5.03, "truncation_factor": 1},
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_unallocatable_grid_exits_3(tmp_path, capsys):
    # 10**15 nodes ask numpy for 7 PiB, which fails at once without touching memory
    cfg = write_config(tmp_path / "cfg.json", grid={"r_max": 3.2, "n": 10**15})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: MemoryError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_width_rectangle_run_is_certified(tmp_path, capsys):
    # a constant g with y1 = y2 gives a zero-width rectangle; the rounding of
    # the first image (~1e-11 of the edge) is no escape
    cfg = write_offsets_config(
        tmp_path / "cfg.json",
        mode="system",
        nonlinearity={"kind": "constant", "g": 1.0},
        matrix={"a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0},
        mu_offsets=[-0.2, -0.05],
        require_certificates=True,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert [(r["certified"], r["violations"]) for r in rows] == [("1", "0")] * 2


def _found_43(reason: str):
    return pytest.mark.xfail(strict=True, reason=f"FOUND 43, {reason}; ROADMAP item 2")


@pytest.mark.parametrize(
    "c, s, space_dim, n, g, offset",
    [
        pytest.param(4.229, 5.987, 1, 209, 0.6608, 0.1688, marks=_found_43("first draw")),
        # the offset is 0.184 of the 1.3156 window
        pytest.param(3.216, 5.823, 3, 239, 1.11, 0.242077, marks=_found_43("second draw")),
    ],
    ids=["N1", "N3"],
)
def test_constant_profile_rows_are_certified(tmp_path, c, s, space_dim, n, g, offset):
    # g constant gives u = g*phi/(Lambda - mu) exactly, yet both rows end
    # uncertified: the image leaves the zero-width bracket at the last one
    # to four nodes, where phi/max phi is 1.5e-26 or less and phi's tail is
    # inaccurate
    cfg = write_offsets_config(
        tmp_path / "cfg.json",
        mode="semilinear",
        space_dim=space_dim,
        potential={"kind": "power", "c": c, "s": s},
        grid={"r_max": 4.0, "n": n},
        nonlinearity={"kind": "constant", "g": g},
        mu_offsets=[-offset, offset],
        require_certificates=True,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_f_table_without_rows_exits_2(tmp_path, capsys):
    table = tmp_path / "f.csv"
    table.write_text("r,f\n")
    cfg = write_config(tmp_path / "cfg.json", f={"kind": "table", "path": str(table)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "no data rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("r,f\n2,1\n1,2\n0,3\n", "strictly increasing"),
        ("r,f\n0,1\n1,nan\n2,3\n", "finite"),
        ("r,f\n0,1\n1,inf\n2,3\n", "finite"),
    ],
    ids=["decreasing", "nan", "inf"],
)
def test_bad_f_table_exits_2(tmp_path, capsys, text, message):
    table = tmp_path / "f.csv"
    table.write_text(text)
    cfg = write_config(tmp_path / "cfg.json", f={"kind": "table", "path": str(table)})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SWEEP = {"from_offset": -0.1, "to_offset": 0.1, "steps": 2}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"potential": {"kind": "power", "c": 1.0}}, "power potential needs 'c' and 's'"),
        ({"potential": {"kind": "table"}}, "table potential needs 'path'"),
        ({"grid": {"r_max": 3.2}}, "grid needs either (r_max, n) or spectral_scale"),
        ({"grid": {"r_max": 3.2, "n": 60, "spectral_scale": 10}},
         "grid needs either (r_max, n) or spectral_scale"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "constant"}}, "constant nonlinearity needs 'g'"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "rational", "kappa": 1.0}},
         "rational nonlinearity needs 'kappa' and 'K'"),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "exp_decay", "K": 2.0}},
         "exp_decay nonlinearity needs 'kappa' and 'K'"),
        ({"f": None}, "linear mode needs an 'f' block"),
        ({"f": {"kind": "table"}}, "table f needs 'path'"),
        ({"mu_offsets": [-0.1], "sweep": _SWEEP}, "give exactly one of 'mu_offsets' or 'sweep'"),
        ({"sweep": None}, "give exactly one of 'mu_offsets' or 'sweep'"),
        ({"mode": "semilinear"}, "semilinear mode needs a 'nonlinearity' block"),
        ({**_SEMILINEAR, "mode": "system"},
         "system mode needs 'matrix' and 'nonlinearity' blocks"),
        (None, "sweep file is empty"),
    ],
    ids=[
        "power_without_s", "table_potential_without_path", "grid_neither_form",
        "grid_both_forms", "constant_without_g", "rational_without_K",
        "exp_decay_without_kappa", "linear_without_f", "table_f_without_path",
        "offsets_and_sweep", "neither_offsets_nor_sweep", "semilinear_without_nonlinearity",
        "system_without_matrix", "report_on_empty_sweep",
    ],
)
def test_input_missing_a_required_part_exits_2(tmp_path, capsys, changes, message):
    out = tmp_path / "out"
    if changes is None:
        empty = tmp_path / "sweep.csv"
        empty.write_text("")
        argv = ["report", str(empty), "--out", str(out)]
    else:
        base = write_config(tmp_path / "base.json", grid={"r_max": 3.2, "n": 60})
        base = json.loads(base.read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_invalid(base, **changes)))
        argv = ["run", str(path), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        # each ran and exited 0: an exp potential is e^r whatever its c and s
        ({"potential": {"kind": "exp", "c": -1.0, "s": 1.5, "path": "nope.csv"}},
         'potential.c is not read by kind "exp"'),
        ({"f": {"kind": "phi", "coeff": -7, "path": "nope.csv"}},
         'f.coeff is not read by kind "phi"'),
        ({**_SEMILINEAR, "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0, "s": 0.5}},
         'nonlinearity.s is not read by kind "rational"'),
        ({**_SEMILINEAR, "mode": "system", "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
          "nonlinearity2": {"kind": "constant", "g": 1.0, "kappa": 1.0, "K": 2.0}},
         'nonlinearity2.kappa is not read by kind "constant"'),
        ({"grid": {"r_max": 3.2, "n": 60, "points_per_unit": 5.0, "truncation_factor": 2.0}},
         "grid.points_per_unit is not read by a grid given by r_max and n"),
        ({"grid": {"spectral_scale": 10.0, "points_per_unit": 5.0, "n": 60}},
         "grid.n is not read by a grid given by spectral_scale"),
    ],
    ids=[
        "potential", "f", "nonlinearity", "nonlinearity2", "direct_grid", "spectral_grid",
    ],
)
def test_key_that_its_block_never_reads_exits_2(tmp_path, capsys, changes, message):
    base = write_config(tmp_path / "base.json", grid={"r_max": 3.2, "n": 60})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_invalid(json.loads(base.read_text()), **changes)))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "tol_x, code", [(1e10, 2), (1.0, 2), (1e-6, 0)], ids=["1e10", "1", "cert_slack"]
)
def test_solver_tol_x_above_the_certificate_slack_exits_2(tmp_path, capsys, tol_x, code):
    # a large finite tolerance stopped each row after 1-2 sweeps, and the
    # image check still certified it (residual_x up to 0.68)
    cfg = write_offsets_config(
        tmp_path / "cfg.json", grid={"r_max": 3.2, "n": 120}, mu_offsets=[-0.05, 0.05],
        require_certificates=True, solver={"tol_x": tol_x}, **_SEMILINEAR,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
    if code == 2:
        assert f"error: solver.tol_x = {tol_x:g} must be <= 1e-06\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert all(float(row["residual_x"]) <= 1e-6 for row in rows)


def test_semilinear_exp_decay_run_is_certified(tmp_path):
    cfg = write_offsets_config(
        tmp_path / "cfg.json", grid={"r_max": 3.2, "n": 120}, mu_offsets=[-0.05, 0.05],
        require_certificates=True, mode="semilinear",
        nonlinearity={**_EXP_DECAY, "s": 0.5},
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert [(row["branch"], row["certified"]) for row in rows] == [("MP", "1"), ("AMP", "1")]
    assert all(float(row["two_start_gap"]) <= 1e-7 for row in rows)


def test_table_f_sampled_at_the_nodes_reproduces_the_phi_run(tmp_path):
    # the table holds phi at every grid node, where interpolation returns it exactly
    phi_cfg = write_offsets_config(
        tmp_path / "phi.json", mu_offsets=[-0.05, 0.05], dump_solutions=[-0.05]
    )
    assert main(["run", str(phi_cfg), "--out", str(tmp_path / "phi")]) == 0
    _, *lines = (tmp_path / "phi" / "solution_-0.05.csv").read_text().splitlines(keepends=True)
    table = tmp_path / "f.csv"
    table.write_text("r,f,u\n" + "".join(lines))
    table_cfg = write_offsets_config(
        tmp_path / "table.json", mu_offsets=[-0.05, 0.05], f={"kind": "table", "path": str(table)}
    )
    assert main(["run", str(table_cfg), "--out", str(tmp_path / "table")]) == 0
    sweep = (tmp_path / "table" / "sweep.csv").read_bytes()
    assert sweep == (tmp_path / "phi" / "sweep.csv").read_bytes()


def test_schema_passes_its_metaschema():
    cls = validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    assert type(CONFIG_VALIDATOR) is cls


def _invalid(cfg: dict, **changes) -> dict:
    cfg = {**cfg, **changes}
    return {k: v for k, v in cfg.items() if v is not None}


@pytest.mark.parametrize(
    "changes",
    [
        {"space_dim": "3"},  # wrong type
        {"grid": {"r_max": 3.2, "n": 1}},  # below a minimum
        {"mode": None},  # missing required key
        {"colour": "blue"},  # unexpected property
        {"nonlinearity": {"kind": "cubic"}},  # bad $ref'd block
        {"nonlinearity2": {"kind": "constant", "g": "1"}},
        {"solver": {"damping": 0.0}},  # at an exclusive minimum
        {"max_sector": 8},  # a removed key
    ],
)
def test_config_invalid_message_matches_jsonschema(tmp_path, capsys, changes):
    base = json.loads(write_config(tmp_path / "base.json").read_text())
    cfg = _invalid(base, **changes)
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(cfg, SCHEMA)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config invalid: {info.value.message}\n"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"margin": 10**400}, "margin = 1e+400"),
        ({"margin": -10**400}, "margin = -1e+400"),
        ({"space_dim": 10**400}, "space_dim = 1e+400"),
        ({"grid": {"r_max": 3.2, "n": -10**400}}, "grid.n = -1e+400"),
        ({"mode": 10**400}, "mode = 1e+400"),
        ({"grid": [10**400]}, "grid[0] = 1e+400"),
    ],
    ids=["margin", "margin_negative", "space_dim", "grid_n", "mode", "grid_list"],
)
def test_schema_error_on_a_huge_integer_names_the_key_and_elides_it(
    tmp_path, capsys, changes, message
):
    # jsonschema's message carried all 401 digits of the value; the number
    # check runs before the schema, so the schema never echoes it
    base = json.loads(write_config(tmp_path / "base.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_invalid(base, **changes)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message} must be finite\n"
    assert len(err) < 120
    assert not (tmp_path / "out").exists()


def test_run_does_not_recheck_the_schema(tmp_path, monkeypatch):
    def refuse(cls, schema, *args, **kwargs):
        raise jsonschema.SchemaError("metaschema check during a run")

    monkeypatch.setattr(validator_for(SCHEMA), "check_schema", classmethod(refuse))
    cfg = write_config(tmp_path / "cfg.json", mode="eigen")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _reference_dump(path: Path, header: list[str], arrays: list[np.ndarray]) -> None:
    """The per-cell csv.writer dump that _dump_profiles must match byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(arrays[0])):
            writer.writerow([f17(a[i]) for a in arrays])


EDGE_VALUES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0,
]


@pytest.mark.parametrize("length", [2, DUMP_ROWS - 1, DUMP_ROWS, DUMP_ROWS + 1, 2400])
def test_dump_profile_matches_the_csv_writer(tmp_path, length):
    rng = np.random.default_rng(length)
    wide = rng.standard_normal(length) * 10.0 ** rng.integers(-320, 308, length)
    # edge values at the start, around the chunk boundary and at the end
    for at in (0, DUMP_ROWS - 3, length - len(EDGE_VALUES)):
        span = wide[max(at, 0):][: len(EDGE_VALUES)]
        span[:] = EDGE_VALUES[: span.size]
    single = rng.standard_normal(length).astype(np.float32)
    single[: min(length, 4)] = np.array([np.nan, np.inf, -0.0, 1e-45], np.float32)[:length]
    ints = rng.integers(-(2**62), 2**62, length)
    header = ["r", "phi", "u1", "u2"]
    _reference_dump(tmp_path / "ref.csv", header, [wide, single, ints, wide[::-1]])
    # the float32 column is phi, inside the shared text; the int64 and
    # reversed-view columns are solution columns
    _dump_profiles(wide, single, {tmp_path / "new.csv": (header, [ints, wide[::-1]])})
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # two dumps share each chunk's r,phi text; each file gets its own columns
    _reference_dump(tmp_path / "ref2.csv", header, [wide, single, wide[::-1], ints])
    _dump_profiles(wide, single, {
        tmp_path / "a.csv": (header, [ints, wide[::-1]]),
        tmp_path / "b.csv": (header, [wide[::-1], ints]),
    })
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "ref2.csv").read_bytes()


def test_dump_memory_is_bounded_by_the_chunk_not_the_grid(tmp_path):
    # tracemalloc transient of a two-column dump of 100 000 rows, above
    # the memory held before the call: about 72 KB, the same at 1000 and
    # 10 000 rows; rendering every row's r,phi text before the first dump
    # (as an earlier writer did) held 16 MB at this size
    length = 100_000
    rng = np.random.default_rng(0)
    r, phi = rng.standard_normal(length), rng.standard_normal(length)
    solution = list(rng.standard_normal((2, length)))
    dumps = {tmp_path / "solution.csv": (["r", "phi", "u1", "u2"], solution)}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _dump_profiles(r, phi, dumps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 384 * DUMP_ROWS
    for path in dumps:
        with open(path) as handle:
            assert sum(1 for _ in handle) == length + 1


def test_numerical_stages_start_without_the_parsers_garbage(tmp_path, monkeypatch):
    # argparse's parser holds reference cycles (HelpFormatter <-> _Section),
    # so once parse_args returns it stays allocated until a collection runs,
    # and none runs before a run ends: about 16 KB under every peak while
    # main() did not collect the young generations after parsing.  At the
    # spectrum's entry a young collection must free (almost) nothing of
    # argparse's.  A full one would also return free-list blocks that
    # argparse and jsonschema allocated, which no program change removes.
    argparse_only = [tracemalloc.Filter(True, argparse.__file__)]

    def argparse_bytes() -> int:
        traces = tracemalloc.take_snapshot().filter_traces(argparse_only)
        return sum(stat.size for stat in traces.statistics("filename"))

    freed: list[int] = []
    summarize = experiment_cli.summarize_spectrum

    def probe(*args, **kwargs):
        before = argparse_bytes()
        gc.collect(1)
        freed.append(before - argparse_bytes())
        return summarize(*args, **kwargs)

    monkeypatch.setattr(experiment_cli, "summarize_spectrum", probe)
    cfg = write_offsets_config(tmp_path / "cfg.json", mu_offsets=[-0.1, 0.05])
    tracing = tracemalloc.is_tracing()
    gc.collect()  # the suite's own garbage; counts start from zero
    if not tracing:
        tracemalloc.start()
    try:
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(freed) == 1
    assert freed[0] < 1024


def test_sweep_csv_matches_the_csv_writer(tmp_path):
    # every kind of cell a sweep row holds: floats (edge values too), ints,
    # numpy scalars, flags, branch names and empty cells
    cells = EDGE_VALUES + [np.float64(0.25), np.int64(7), 3, True, False, "MP", "AMP", "", None]
    rows = [
        {col: cells[(i + j) % len(cells)] for j, col in enumerate(COLUMNS)}
        for i in range(len(cells))
    ]
    rows.append({"mu": 1.0})  # missing columns are empty cells
    with open(tmp_path / "ref.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_cell(row.get(col, "")) for col in COLUMNS])
    _write_sweep(tmp_path / "new.csv", [_sweep_line(row) for row in rows])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ------------------------------------------------------------- config fuzz

FUZZ_BASE = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
    "grid": {"r_max": 3.2, "n": 60},
    "mu_offsets": [-0.1, 0.05],
}
FUZZ_MODES = {
    "eigen": {},
    "linear": {"f": {"kind": "phi_plus_phi2", "coeff": 0.5}},
    "semilinear": {"nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0}},
    "system": {
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        "nonlinearity": {"kind": "rational", "kappa": 1.0, "K": 2.0},
    },
}


EXTREMES = st.sampled_from([0.0, -1.0, 1e300, float("nan"), float("inf"), float("-inf")])


def _num(lo: float, hi: float):
    """Floats in [lo, hi]; one draw in eight is a value JSON lets through unchecked."""
    return st.integers(0, 7).flatmap(lambda k: EXTREMES if k == 0 else st.floats(lo, hi))


def _nonlinearity():
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("constant"), "g": _num(0.1, 3.0)}),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["rational", "exp_decay"]),
             "kappa": _num(-0.5, 2.0), "K": _num(0.1, 4.0)},
            optional={"s": _num(0.1, 3.0)},
        ),
    )


def _set(key: str, values) -> st.SearchStrategy:
    return values.map(lambda v: {key: v})


# one to three changes to a valid config, each setting one top-level key (a
# None value deletes it); grids stay at n <= 80 nodes: a spectral_scale <= 10
# grid ends where q reaches 40, inside r = 40**(1/2) for every admissible
# power (s > 2) and exp potential, at <= 12 points per unit
CONFIG_MUTATIONS = st.lists(
    st.one_of(
        _set("space_dim", st.integers(1, 5)),
        _set("potential", st.one_of(
            st.fixed_dictionaries(
                {"kind": st.just("power"), "c": _num(0.05, 5.0), "s": _num(1.0, 8.0)},
                optional={"r0": _num(0.0, 5.0)},
            ),
            st.fixed_dictionaries({"kind": st.just("exp")}, optional={"r0": _num(0.0, 5.0)}),
        )),
        _set("grid", st.one_of(
            st.fixed_dictionaries({"r_max": _num(0.5, 20.0), "n": st.integers(2, 80)}),
            st.fixed_dictionaries(
                {"spectral_scale": st.floats(0.1, 10.0), "points_per_unit": st.floats(0.5, 12.0)}
            ),
        )),
        _set("margin", _num(0.05, 0.95)),
        _set("mu_offsets", st.lists(_num(-0.5, 0.5), min_size=1, max_size=3)),
        st.fixed_dictionaries({
            "mu_offsets": st.none(),
            "sweep": st.fixed_dictionaries(
                {"from_offset": _num(-0.5, 0.5), "to_offset": _num(-0.5, 0.5),
                 "steps": st.integers(1, 3)}
            ),
        }),
        _set("f", st.fixed_dictionaries(
            {"kind": st.sampled_from(["phi", "phi_plus_phi2"])}, optional={"coeff": _num(-3.0, 3.0)}
        )),
        _set("nonlinearity", _nonlinearity()),
        _set("nonlinearity2", _nonlinearity()),
        _set("matrix", st.fixed_dictionaries(
            {"a": _num(-2.0, 2.0), "b": _num(-0.5, 2.0), "c": _num(-0.5, 2.0), "d": _num(-2.0, 2.0)}
        )),
        _set("solver", st.fixed_dictionaries(
            {},
            optional={
                "damping": _num(0.05, 1.0),
                "max_iter": st.integers(1, 300),
                "tol_x": _num(1e-12, 1e-4),
                "start": st.sampled_from(["lower", "upper"]),
                "two_start": st.booleans(),
            },
        )),
        _set("require_certificates", st.booleans()),
    ),
    min_size=1,
    max_size=3,
).map(lambda changes: {k: v for change in changes for k, v in change.items()})


@settings(max_examples=40)
@given(mode=st.sampled_from(sorted(FUZZ_MODES)), changes=CONFIG_MUTATIONS)
def test_mutated_configs_exit_with_a_documented_code(mode, changes):
    # any config either runs or fails with exit 2, 3 or 4; none may raise
    with tempfile.TemporaryDirectory() as tmp:
        base = {"mode": mode, **FUZZ_BASE, **FUZZ_MODES[mode], "output_dir": tmp}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(_invalid(base, **changes)))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)
