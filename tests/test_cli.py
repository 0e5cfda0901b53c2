"""End-to-end command line tests driven through main() in-process."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

import groundstate
from groundstate.experiment_cli import (
    COLUMNS,
    CONFIG_VALIDATOR,
    DUMP_ROWS,
    SCHEMA,
    _cell,
    _dump_profile,
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


def test_dump_solutions_writes_profiles(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        mu_offsets=[-0.1, 0.05],
        dump_solutions=[-0.1],
    )
    del_sweep = json.loads(cfg.read_text())
    del del_sweep["sweep"]
    cfg.write_text(json.dumps(del_sweep))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    dump = out / "solution_-0.1.csv"
    assert dump.exists()
    lines = dump.read_text().splitlines()
    assert lines[0] == "r,phi,u"
    assert len(lines) == 1 + 300
    assert not (out / "solution_0.05.csv").exists()


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
        ({"mu_offsets": [float("inf")]}, "offsets must be finite"),
        ({"mu_offsets": None,
          "sweep": {"from_offset": float("-inf"), "to_offset": 0.1, "steps": 2}},
         "offsets must be finite"),
        ({"mode": "system", "matrix": {"a": 0.0, "b": float("inf"), "c": 1.0, "d": 0.0},
          "nonlinearity": {"kind": "constant", "g": 1.0}}, "matrix entries must be finite"),
    ],
    ids=["offset", "sweep_end", "matrix"],
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


def test_linalg_error_exits_3(tmp_path, capsys):
    # q = 1 + r**400 overflows the band; the Cholesky factorization gives up
    cfg = write_config(
        tmp_path / "cfg.json", potential={"kind": "power", "c": 1.0, "s": 400.0}
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: LinAlgError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_run_does_not_recheck_the_schema(tmp_path, monkeypatch):
    def refuse(cls, schema, *args, **kwargs):
        raise jsonschema.SchemaError("metaschema check during a run")

    monkeypatch.setattr(validator_for(SCHEMA), "check_schema", classmethod(refuse))
    cfg = write_config(tmp_path / "cfg.json", mode="eigen")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _reference_dump(path: Path, header: list[str], arrays: list[np.ndarray]) -> None:
    """The per-cell csv.writer dump that _dump_profile must match byte for byte."""
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
    arrays = [wide, single, ints, wide[::-1]]
    header = ["r", "phi", "u1", "u2"]
    _reference_dump(tmp_path / "ref.csv", header, arrays)
    _dump_profile(tmp_path / "new.csv", header, arrays)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    _write_sweep(tmp_path / "new.csv", rows)
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(sorted(FUZZ_MODES)), changes=CONFIG_MUTATIONS)
def test_mutated_configs_exit_with_a_documented_code(mode, changes):
    # any config either runs or fails with exit 2, 3 or 4; none may raise
    with tempfile.TemporaryDirectory() as tmp:
        base = {"mode": mode, **FUZZ_BASE, **FUZZ_MODES[mode], "output_dir": tmp}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(_invalid(base, **changes)))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)
