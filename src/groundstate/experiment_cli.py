"""Command-line driver: configured runs and sweep reports.

``groundstate run config.json`` executes one experiment described by a
JSON config (validated against a schema before anything is computed) and
writes deterministic artifacts into the configured output directory.  The
schema validator is built once, at import; the schema itself is a constant,
so its check against the draft 2020-12 metaschema lives in the test suite
instead of in every run.  The artifacts:

* ``spectrum.json``   -- eigendata, window constants, config hash;
* ``sweep.csv``       -- one row per requested shift mu, sorted by mu,
                         floats at 17 significant digits;
* ``solution_<offset>.csv`` -- full radial profiles on request.

``groundstate report sweep.csv --out DIR`` derives the two plotting
curves (sign-certificate and blow-up) from a previously written sweep,
copying cell text verbatim so repeated runs stay byte-identical.

Exit codes: 0 success; 2 malformed config, unreadable input (including
a ``q`` or ``f`` table with a non-finite entry, radii that do not strictly
increase, or too few rows), a ``power`` potential with ``s <= 2`` (the
message names ``potential.s``), a non-finite shift offset or matrix entry,
a grid with fewer nodes than the six radial eigenvalues the spectrum
reports, non-finite grid weights, or a potential that is non-finite or
nonpositive on the grid or decreases on grid nodes beyond its r0; 3 a solver raised (no convergence, singular solve, escaped
bracket, window or hypothesis violation) or numpy/scipy did (``LinAlgError``,
or an ``ArithmeticError`` such as ``OverflowError``); 4 certificates were
required but some row is uncertified.  The output directory is created only
once every row is computed, so a run that exits 2 or 3 creates none.
Wall-clock time goes to stderr only, keeping files reproducible.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .coop_system import (
    analyze_matrix,
    inherited_bounds,
    solve_system,
    system_problem,
    system_two_start,
    window_system,
    WINDOW_RULE_SYSTEM,
)
from .errors import (
    GroundstateError,
    MalformedInput,
    NonPositivePotential,
    NotCooperative,
    NotIncreasing,
)
from .groundstate_space import estimate_c0_delta0, x_norm
from .linear_solver import (
    WINDOW_RULE_LINEAR,
    certify_theorem1,
    linear_problem,
    window_linear,
)
from .radial_grid import (
    build_grid,
    exp_potential,
    make_grid,
    power_potential,
    read_table,
    require_increasing,
    tabulated_potential,
)
from .semilinear_solver import (
    WINDOW_RULE_SEMILINEAR,
    constant_profile,
    exp_decay_profile,
    rational_profile,
    solve_semilinear,
    two_start_diagnostics,
    validate_nonlinearity,
    window_semilinear,
)
from .spectral import RADIAL_EIGS, eigenpairs, summarize_spectrum

CONFIG_ERRORS = (MalformedInput, NonPositivePotential, NotIncreasing, NotCooperative)

_NUMBER = {"type": "number"}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "space_dim", "potential", "grid", "output_dir"],
    "properties": {
        "mode": {"enum": ["eigen", "linear", "semilinear", "system"]},
        "space_dim": {"type": "integer", "minimum": 1, "maximum": 12},
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["power", "exp", "table"]},
                "c": _NUMBER,
                "s": _NUMBER,
                "r0": _NUMBER,
                "path": {"type": "string"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
                "spectral_scale": {"type": "number", "exclusiveMinimum": 0},
                "points_per_unit": {"type": "number", "exclusiveMinimum": 0},
                "truncation_factor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "margin": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "mu_offsets": {"type": "array", "items": _NUMBER, "minItems": 1},
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["from_offset", "to_offset", "steps"],
            "properties": {
                "from_offset": _NUMBER,
                "to_offset": _NUMBER,
                "steps": {"type": "integer", "minimum": 1},
            },
        },
        "f": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["phi", "phi_plus_phi2", "table"]},
                "coeff": _NUMBER,
                "path": {"type": "string"},
            },
        },
        "nonlinearity": {"$ref": "#/$defs/nonlinearity"},
        "nonlinearity2": {"$ref": "#/$defs/nonlinearity"},
        "matrix": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a", "b", "c", "d"],
            "properties": {"a": _NUMBER, "b": _NUMBER, "c": _NUMBER, "d": _NUMBER},
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "damping": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "max_iter": {"type": "integer", "minimum": 1},
                "tol_x": {"type": "number", "exclusiveMinimum": 0},
                "start": {"enum": ["lower", "upper"]},
                "two_start": {"type": "boolean"},
            },
        },
        "require_certificates": {"type": "boolean"},
        "dump_solutions": {"type": "array", "items": _NUMBER},
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "$defs": {
        "nonlinearity": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constant", "rational", "exp_decay"]},
                "g": _NUMBER,
                "kappa": _NUMBER,
                "K": _NUMBER,
                "s": _NUMBER,
            },
        }
    },
}

#: built once: jsonschema.validate would re-check SCHEMA against its
#: metaschema on every call (tests/test_cli.py checks it once)
CONFIG_VALIDATOR = validator_for(SCHEMA)(SCHEMA)

COLUMNS = [
    "mu",
    "offset",
    "branch",
    "u1_component",
    "min_ratio",
    "max_ratio",
    "x_norm",
    "bound_lo",
    "bound_hi",
    "xnorm_bound",
    "certified",
    "in_window",
    "iterations",
    "residual_x",
    "violations",
    "two_start_gap",
    "bo_residual",
    "v2_xnorm",
    "v2_bound",
]

GSP_CURVE_COLUMNS = [
    "mu", "offset", "branch", "min_ratio", "max_ratio", "bound_lo", "bound_hi", "certified",
]
BLOWUP_CURVE_COLUMNS = ["mu", "offset", "x_norm", "xnorm_bound"]


def f17(x: float) -> str:
    """Fixed 17-significant-digit text for a float (round-trip exact)."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f17(value)


def _jsonable(value):
    """Recursively convert numerics so json output is plain and stable."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def build_potential(cfg: dict):
    block = cfg["potential"]
    kind = block["kind"]
    if kind == "power":
        if "c" not in block or "s" not in block:
            raise MalformedInput("power potential needs 'c' and 's'")
        return power_potential(block["c"], block["s"], r0=block.get("r0", 1.0))
    if kind == "exp":
        return exp_potential(r0=block.get("r0", 0.0))
    if "path" not in block:
        raise MalformedInput("table potential needs 'path'")
    return tabulated_potential(block["path"], r0=block.get("r0"))


def build_the_grid(cfg: dict, pot, grid_scale: float):
    g = cfg["grid"]
    direct = "r_max" in g and "n" in g
    if direct == ("spectral_scale" in g):
        raise MalformedInput("grid needs either (r_max, n) or spectral_scale")
    if direct:
        n = int(math.ceil(g["n"] * grid_scale))
        grid = make_grid(cfg["space_dim"], g["r_max"], n)
    else:
        grid = build_grid(
            pot,
            cfg["space_dim"],
            g["spectral_scale"],
            points_per_unit=g.get("points_per_unit", 200.0) * grid_scale,
            truncation_factor=g.get("truncation_factor", 4.0),
        )
    if len(grid.r) < RADIAL_EIGS:
        raise MalformedInput(
            f"grid has {len(grid.r)} nodes but the spectrum needs at least {RADIAL_EIGS}; "
            f"raise grid.{'n' if direct else 'points_per_unit'}"
        )
    return grid


def check_potential_on_grid(pot, grid) -> None:
    """q must be finite and positive on every node and must not decrease
    beyond r0."""
    with np.errstate(over="ignore"):
        q = pot(grid.r)
    finite = np.isfinite(q)
    if not finite.all():
        bad = float(grid.r[np.argmin(finite)])
        raise MalformedInput(f"q(r) is not finite at grid node r = {bad:.6g}")
    positive = q > 0.0
    if not positive.all():
        bad = float(grid.r[np.argmin(positive)])
        raise NonPositivePotential(f"q(r) <= 0 at grid node r = {bad:.6g}")
    require_increasing(grid.r, q, pot.r0)


def build_nonlinearity(block: dict):
    kind = block["kind"]
    if kind == "constant":
        if "g" not in block:
            raise MalformedInput("constant nonlinearity needs 'g'")
        return constant_profile(block["g"])
    if "kappa" not in block or "K" not in block:
        raise MalformedInput(f"{kind} nonlinearity needs 'kappa' and 'K'")
    if kind == "rational":
        return rational_profile(block["kappa"], block["K"])
    return exp_decay_profile(block["kappa"], block["K"], s=block.get("s", 1.0))


def build_f(cfg: dict, op, spectrum) -> np.ndarray:
    block = cfg.get("f")
    if block is None:
        raise MalformedInput("linear mode needs an 'f' block")
    kind = block["kind"]
    phi = spectrum.phi.values
    if kind == "phi":
        return phi.copy()
    if kind == "phi_plus_phi2":
        _, vecs = eigenpairs(op, 2)
        return phi + block.get("coeff", 0.5) * vecs[:, 1]
    if "path" not in block:
        raise MalformedInput("table f needs 'path'")
    r_tab, f_tab = read_table(block["path"], "f", "f")
    if r_tab.size == 0:
        raise MalformedInput("f table has no data rows")
    return np.interp(op.grid.r, r_tab, f_tab)


def resolve_offsets(cfg: dict) -> list[float]:
    has_list = "mu_offsets" in cfg
    has_sweep = "sweep" in cfg
    if has_list == has_sweep:
        raise MalformedInput("give exactly one of 'mu_offsets' or 'sweep'")
    if has_list:
        offsets = [float(x) for x in cfg["mu_offsets"]]
    else:
        s = cfg["sweep"]
        with np.errstate(invalid="ignore"):  # an infinite end gives a non-finite offset
            offsets = [float(x) for x in np.linspace(s["from_offset"], s["to_offset"], s["steps"])]
    for off in offsets:
        if not math.isfinite(off):
            raise MalformedInput("mu offsets must be finite")
        if abs(off) < 1e-12:
            raise MalformedInput("mu offsets must be nonzero (mu = Lambda is singular)")
    return sorted(offsets)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Rows through csv.writer, which quotes the arbitrary cells report copies."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col, "")) for col in columns])


def _write_sweep(path: Path, rows: list[dict]) -> None:
    """sweep.csv as comma-joined lines, the bytes csv.writer would write.

    Its cells are numbers, MP/AMP and 0/1 flags, none of which needs
    quoting; csv.writer's 128 KB record buffer was the largest allocation
    of a sweep run.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join([_cell(row.get(col, "")) for col in COLUMNS]) + "\n")


#: rows per chunk of a profile dump; bounds the memory a dump holds at once
DUMP_ROWS = 256


def _dump_profile(path: Path, header: list[str], arrays: list[np.ndarray]) -> None:
    """Columns as f17 text, one row per node; streamed in DUMP_ROWS chunks."""
    line = ",".join(["{:.17g}"] * len(arrays)) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(arrays[0]), DUMP_ROWS):
            chunk = [a[start:start + DUMP_ROWS].tolist() for a in arrays]
            handle.writelines(map(line.format, *chunk))


def cmd_run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    with open(args.config) as handle:
        cfg = json.load(handle)
    error = best_match(CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise MalformedInput(f"config invalid: {error.message}") from error

    grid_scale = float(args.grid_scale)
    if not (math.isfinite(grid_scale) and grid_scale > 0):
        raise MalformedInput("--grid-scale must be finite and positive")
    seed = int(args.seed) if args.seed is not None else int(cfg.get("seed", 0))
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(
        f"{canon}|{grid_scale!r}|{seed}".encode()
    ).hexdigest()[:16]

    pot = build_potential(cfg)
    grid = build_the_grid(cfg, pot, grid_scale)
    check_potential_on_grid(pot, grid)
    spectrum = summarize_spectrum(grid, pot)
    op = spectrum.op
    w = estimate_c0_delta0(spectrum, op, margin=cfg.get("margin", 0.5))

    meta = {
        "mode": cfg["mode"],
        "space_dim": cfg["space_dim"],
        "potential": pot.name,
        "grid": {"r_max": grid.r_max, "n": grid.n, "h": grid.h},
        "Lambda": spectrum.Lambda,
        "lambda2": spectrum.lambda2,
        "lambda2_sector": spectrum.lambda2_sector,
        "radial_eigs": spectrum.radial_eigs,
        "delta0": w.delta0,
        "c0": w.c0,
        "mu_samples": w.mu_samples,
        "seed": seed,
        "grid_scale": grid_scale,
        "config_hash": config_hash,
    }

    rows, dumps = _sweep_rows(cfg, op, spectrum, w, meta)

    # created only now, so a run that fails leaves no directory behind
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spectrum.json", "w") as handle:
        json.dump(_jsonable(meta), handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_sweep(out_dir / "sweep.csv", rows)
    for offset, (header, arrays) in dumps.items():
        _dump_profile(out_dir / f"solution_{offset:g}.csv", header, arrays)

    print(f"wall_time_s {time.perf_counter() - t0:.3f}", file=sys.stderr)
    if cfg.get("require_certificates", False):
        uncertified = [row for row in rows if row.get("certified") is False]
        if uncertified:
            print(
                f"{len(uncertified)} of {len(rows)} rows uncertified", file=sys.stderr
            )
            return 4
    return 0


def _requested_dumps(cfg: dict, offset: float) -> bool:
    for want in cfg.get("dump_solutions", []):
        if abs(want - offset) <= 1e-12 * max(1.0, abs(want)):
            return True
    return False


def _sweep_rows(cfg: dict, op, spectrum, w, meta: dict) -> tuple[list[dict], dict]:
    """One row per shift mu, and the profiles to dump; fills meta's window keys.

    The mode's setup (MODE_SETUPS) supplies the shift origin (Lambda or
    Lambda*), its meta entries, the names of the dumped solution columns
    and a function mu -> (row cells, solution arrays).  Returning before
    the files are written lets everything the last row built be freed.
    """
    if cfg["mode"] == "eigen":
        meta.update(window=w.delta0, window_rule="delta0")
        return [], {}
    origin, extras, header, row_at = MODE_SETUPS[cfg["mode"]](cfg, op, spectrum, w)
    meta.update(extras)
    phi = spectrum.phi.values
    rows: list[dict] = []
    dumps: dict[float, tuple[list[str], list[np.ndarray]]] = {}
    for offset in resolve_offsets(cfg):
        mu = origin + offset
        cells, solution = row_at(mu)
        row = {k: "" for k in COLUMNS}
        row.update(mu=mu, offset=offset, **cells)
        rows.append(row)
        if _requested_dumps(cfg, offset):
            dumps[offset] = (["r", "phi", *header], [op.grid.r, phi, *solution])
    return rows, dumps


def _linear_setup(cfg, op, spectrum, w):
    p = linear_problem(op, spectrum, build_f(cfg, op, spectrum))
    lam = spectrum.Lambda

    def row_at(mu):
        cert = certify_theorem1(p, w, mu)
        cells = dict(
            branch="MP" if mu < lam else "AMP",
            u1_component=cert.solution.c1,
            min_ratio=cert.min_ratio,
            max_ratio=cert.max_ratio,
            x_norm=cert.solution.x_norm,
            bound_lo=cert.bound if (cert.in_window and mu < lam) else "",
            bound_hi=cert.bound if (cert.in_window and mu > lam) else "",
            xnorm_bound=abs(p.f.c1) / abs(lam - mu) + w.c0 * p.perp_x,
            certified=cert.certified,
            in_window=cert.in_window,
            iterations=1,
            violations=0,
        )
        return cells, [cert.solution.values]

    meta = {"window": window_linear(p, w), "window_rule": WINDOW_RULE_LINEAR}
    return lam, meta, ["u"], row_at


def _solver_controls(cfg: dict) -> tuple[bool, str, dict]:
    """two_start, start and the damping/max_iter/tol_x kwargs, defaults filled in."""
    solver = cfg.get("solver", {})
    kwargs = dict(
        damping=solver.get("damping", 0.5),
        max_iter=solver.get("max_iter", 500),
        tol_x=solver.get("tol_x", 1e-9),
    )
    return solver.get("two_start", True), solver.get("start", "lower"), kwargs


def _fixed_point_cells(rep) -> dict:
    """Cells a semilinear or system report fills the same way."""
    diag = rep.uniqueness
    bo = None if diag is None else diag.brezis_oswald_residual
    return dict(
        branch=rep.branch,
        certified=rep.certified,
        in_window=True,
        iterations=rep.iterations,
        residual_x=rep.residual_x,
        violations=rep.violations,
        two_start_gap="" if diag is None else diag.two_start_gap,
        bo_residual="" if bo is None else bo,
    )


def _semilinear_setup(cfg, op, spectrum, w):
    if "nonlinearity" not in cfg:
        raise MalformedInput("semilinear mode needs a 'nonlinearity' block")
    nl = build_nonlinearity(cfg["nonlinearity"])
    validate_nonlinearity(nl, op.grid.r)
    lam = spectrum.Lambda
    two_start, start, kwargs = _solver_controls(cfg)

    def row_at(mu):
        if two_start:
            rep = two_start_diagnostics(op, spectrum, w, nl, mu, **kwargs)
        else:
            rep = solve_semilinear(op, spectrum, w, nl, mu, start=start, **kwargs)
        cells = dict(
            _fixed_point_cells(rep),
            u1_component=rep.solution.c1,
            min_ratio=rep.min_ratio,
            max_ratio=rep.max_ratio,
            x_norm=rep.solution.x_norm,
            bound_lo=rep.bound_lo,
            bound_hi=rep.bound_hi,
            xnorm_bound=rep.xnorm_bound,
        )
        return cells, [rep.solution.values]

    meta = {"window": window_semilinear(nl, w), "window_rule": WINDOW_RULE_SEMILINEAR}
    return lam, meta, ["u"], row_at


def _system_setup(cfg, op, spectrum, w):
    if "matrix" not in cfg or "nonlinearity" not in cfg:
        raise MalformedInput("system mode needs 'matrix' and 'nonlinearity' blocks")
    mspec = cfg["matrix"]
    m = analyze_matrix(mspec["a"], mspec["b"], mspec["c"], mspec["d"])
    nl1 = build_nonlinearity(cfg["nonlinearity"])
    nl2 = build_nonlinearity(cfg.get("nonlinearity2", cfg["nonlinearity"]))
    for nl in (nl1, nl2):
        validate_nonlinearity(nl, op.grid.r)
    p = system_problem(op, spectrum, m, nl1, nl2)
    phi = spectrum.phi.values
    two_start, start, kwargs = _solver_controls(cfg)

    def row_at(mu):
        if two_start:
            rep = system_two_start(p, w, mu, **kwargs)
        else:
            rep = solve_system(p, w, mu, start=start, **kwargs)
        rect = rep.rectangle
        cells = dict(
            _fixed_point_cells(rep),
            u1_component=rep.u1.c1,
            min_ratio=float(np.min(rep.min_ratio)),
            max_ratio=float(np.max(rep.max_ratio)),
            x_norm=max(rep.u1.x_norm, rep.u2.x_norm),
            bound_lo=float(np.min(rect.lo)),
            bound_hi=float(np.max(rect.hi)),
            xnorm_bound=float(np.max(np.abs(np.concatenate([rect.lo, rect.hi])))),
            v2_xnorm=x_norm(rep.v2, phi),
            v2_bound=rep.v2_bound,
        )
        return cells, [rep.u1.values, rep.u2.values]

    kp, kup = inherited_bounds(m, p.kappa, p.k_upper)
    meta = {
        "lambda_star": p.lambda_star,
        "xi1": m.xi1,
        "xi2": m.xi2,
        "y": m.y,
        "kappa_prime": kp,
        "k_prime": kup,
        "window": window_system(p, w),
        "window_rule": WINDOW_RULE_SYSTEM,
    }
    return p.lambda_star, meta, ["u1", "u2"], row_at


MODE_SETUPS = {
    "linear": _linear_setup,
    "semilinear": _semilinear_setup,
    "system": _system_setup,
}


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.sweep, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MalformedInput("sweep file is empty")
        missing = [c for c in COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MalformedInput(f"sweep file missing columns: {', '.join(missing)}")
        data = list(reader)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "gsp_curve.csv", GSP_CURVE_COLUMNS, data)
    _write_csv(out_dir / "blowup_curve.csv", BLOWUP_CURVE_COLUMNS, data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundstate",
        description="Groundstate-weighted analysis of radial Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured experiment")
    run.add_argument("config", help="path to a JSON config")
    run.add_argument("--out", help="override the config's output_dir")
    run.add_argument(
        "--grid-scale",
        type=float,
        default=1.0,
        help="multiply grid resolution (refinement studies)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    report = sub.add_parser("report", help="derive plotting curves from a sweep")
    report.add_argument("sweep", help="path to a sweep.csv written by 'run'")
    report.add_argument("--out", required=True, help="directory for the curve files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_report(args)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroundstateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
