"""Command-line driver: configured runs and sweep reports.

``groundstate run config.json`` executes one experiment described by a
JSON config (validated against a schema before anything is computed) and
writes deterministic artifacts into the configured output directory.  The
schema validator is built once, at import; the schema itself is a constant,
so its check against the draft 2020-12 metaschema lives in the test suite
instead of in every run.  The artifacts:

* ``spectrum.json``   -- eigendata, window constants, config hash;
* ``sweep.csv``       -- one row per requested shift mu, sorted by mu,
                         floats at 17 significant digits; each row is
                         rendered to its text line as soon as it is solved;
* ``solution_<offset>.csv`` -- full radial profiles on request, columns
                         ``r``, ``phi`` and the solution (``u``, or ``u1``
                         and ``u2``); the dumps are written together, one
                         DUMP_ROWS chunk of rows at a time: the chunk's
                         ``r,phi`` text is rendered once, into a format
                         string each dump fills with its solution columns,
                         so a run holds one chunk's text, whatever n is.

``groundstate report sweep.csv --out DIR`` derives the two plotting
curves (sign-certificate and blow-up) from a previously written sweep,
copying cell text verbatim so repeated runs stay byte-identical.

Exit codes: 0 success; 2 malformed config, unreadable input (including
a ``q`` or ``f`` table with a non-finite entry, radii that do not strictly
increase, or too few rows), a NaN, infinite number or integer past the
double range anywhere in the config (checked before the schema; the
message names the key, as ``grid.n`` or ``mu_offsets[1]``), an integer
literal too long for Python to read, a ``dump_solutions`` entry that
matches no shift offset, two ``dump_solutions`` entries whose offsets
would share a ``solution_<offset>.csv`` name, a ``power`` potential
with ``s <= 2`` (the message names ``potential.s``), a ``potential``,
``f``, ``nonlinearity``, ``nonlinearity2`` or ``grid`` key that the
block's kind (for the grid: r_max and n, or spectral_scale) never reads
(the message names it, as ``potential.c``), a sweep whose shift offsets
overflow, a shift offset that vanishes against the shift origin (origin + offset ==
origin, so mu would be Lambda or Lambda*; the message names the
``mu_offsets`` entry, or ``sweep``), a
grid with fewer nodes than the six radial eigenvalues the spectrum
reports or with more than a numpy array holds (the message names
``grid.n``, ``grid.points_per_unit`` or ``--grid-scale``), grid weights
that overflow or underflow to 0, a step h whose 2/h**2 or its square is
not finite (the message names ``grid.r_max`` and ``grid.n``), a
``grid.spectral_scale`` whose multiple q does not reach
below r = 1e4 (the message names it), or a potential that is non-finite
or nonpositive on the grid or decreases on grid nodes beyond its r0, a
``sweep.steps`` above what a numpy array holds, a ``solver.tol_x`` above
CERT_SLACK, or a negative ``--seed``
(the errors that subclass ConfigError, and unreadable files); 3 a solver
raised (no convergence, singular solve, escaped bracket, window or
hypothesis violation), a LAPACK call failed (``LinAlgError``) or numpy
did (an ``ArithmeticError`` such as ``OverflowError``, or a ``MemoryError``
for a grid numpy can size but memory cannot hold); 4 certificates were
required but some row is uncertified.  The output directory is created only
once every row is computed, so a run that exits 2 or 3 creates none.
Wall-clock time goes to stderr only, keeping files reproducible.
"""

from __future__ import annotations

import argparse
import csv
import gc
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
from .errors import ConfigError, GroundstateError, MalformedInput, NonPositivePotential
from .groundstate_space import CERT_SLACK, estimate_c0_delta0
from .linear_solver import (
    WINDOW_RULE_LINEAR,
    certify_theorem1,
    linear_problem,
    window_linear,
)
from .radial_grid import (
    MAX_ARRAY_LENGTH,
    build_grid,
    exp_potential,
    make_grid,
    node_count,
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
from .spectral import RADIAL_EIGS, eigenfunctions, summarize_spectrum

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


def _require_finite(value, key: str = "") -> None:
    """MalformedInput naming ``key`` for a number in ``value`` that is not a finite double.

    JSON admits NaN and Infinity, which the schema's bounds let through,
    and json reads an integer literal exactly, so 10**400 arrives as an
    int that float() and numpy refuse; as a double it is infinite and is
    named by its order of magnitude ("1e+400").  Dicts and lists are
    walked, a list entry named ``key[i]``.
    """
    if isinstance(value, dict):
        for name, item in value.items():
            _require_finite(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise MalformedInput(f"{key} = {value:g} must be finite")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        digits = str(abs(value))
        sign = "-" if value < 0 else ""
        raise MalformedInput(f"{key} = {sign}{digits[0]}e+{len(digits) - 1} must be finite")


#: the keys each kind of a potential, f or nonlinearity block reads, besides "kind"
KIND_READS = {
    "potential": {"power": ("c", "s", "r0"), "exp": ("r0",), "table": ("path", "r0")},
    "f": {"phi": (), "phi_plus_phi2": ("coeff",), "table": ("path",)},
    "nonlinearity": {
        "constant": ("g",), "rational": ("kappa", "K"), "exp_decay": ("kappa", "K", "s"),
    },
}


def _refuse_unread(block: dict, name: str, reads: tuple[str, ...], reader: str) -> None:
    """MalformedInput naming the first key of block, besides kind, that is not in reads."""
    unread = [key for key in block if key != "kind" and key not in reads]
    if unread:
        raise MalformedInput(f"{name}.{unread[0]} is not read by {reader}")


def _block_kind(block: dict, name: str, table: str) -> str:
    """block's kind, once no key of block is one that kind never reads (KIND_READS[table])."""
    kind = block["kind"]
    _refuse_unread(block, name, KIND_READS[table][kind], f'kind "{kind}"')
    return kind


def build_potential(cfg: dict):
    block = cfg["potential"]
    kind = _block_kind(block, "potential", "potential")
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
    reads = ("r_max", "n") if direct else ("spectral_scale", "points_per_unit", "truncation_factor")
    _refuse_unread(g, "grid", reads, f"a grid given by {'r_max and n' if direct else reads[0]}")
    if direct:
        key = "grid.n" if grid_scale == 1.0 else "grid.n times --grid-scale"
        grid = make_grid(cfg["space_dim"], g["r_max"], node_count(g["n"] * grid_scale, key))
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


def build_nonlinearity(block: dict, name: str):
    """The profile a ``nonlinearity`` block describes; name is its config key."""
    kind = _block_kind(block, name, "nonlinearity")
    if kind == "constant":
        if "g" not in block:
            raise MalformedInput("constant nonlinearity needs 'g'")
        return constant_profile(block["g"])
    if "kappa" not in block or "K" not in block:
        raise MalformedInput(f"{kind} nonlinearity needs 'kappa' and 'K'")
    if kind == "rational":
        return rational_profile(block["kappa"], block["K"])
    return exp_decay_profile(block["kappa"], block["K"], s=block.get("s", 1.0))


def build_f(cfg: dict, spectrum) -> np.ndarray:
    block = cfg.get("f")
    if block is None:
        raise MalformedInput("linear mode needs an 'f' block")
    kind = _block_kind(block, "f", "f")
    phi = spectrum.phi
    if kind == "phi":
        return phi.copy()
    if kind == "phi_plus_phi2":
        phi2 = eigenfunctions(spectrum.op, spectrum.radial_eigs[:2])[:, 1]
        return phi + block.get("coeff", 0.5) * phi2
    if "path" not in block:
        raise MalformedInput("table f needs 'path'")
    r_tab, f_tab = read_table(block["path"], "f", "f")
    if r_tab.size == 0:
        raise MalformedInput("f table has no data rows")
    return np.interp(spectrum.op.grid.r, r_tab, f_tab)


def resolve_offsets(cfg: dict) -> list[float]:
    has_list = "mu_offsets" in cfg
    has_sweep = "sweep" in cfg
    if has_list == has_sweep:
        raise MalformedInput("give exactly one of 'mu_offsets' or 'sweep'")
    if has_list:
        offsets = [float(x) for x in cfg["mu_offsets"]]
    else:
        s = cfg["sweep"]
        if not s["steps"] < MAX_ARRAY_LENGTH:
            raise MalformedInput(
                f"sweep.steps = {s['steps']} asks for more shifts than a numpy array holds"
            )
        # ends more than the double range apart overflow the step to inf
        with np.errstate(over="ignore", invalid="ignore"):
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


def _sweep_line(row: dict) -> str:
    """One sweep.csv line of a row, the bytes csv.writer would write; absent columns are empty.

    Its cells are numbers, MP/AMP and 0/1 flags, none of which needs
    quoting; csv.writer's 128 KB record buffer was the largest allocation
    of a sweep run.
    """
    return ",".join([_cell(row.get(col, "")) for col in COLUMNS]) + "\n"


def _write_sweep(path: Path, lines: list[str]) -> None:
    """sweep.csv: the COLUMNS header, then the rendered row lines (_sweep_line) as given."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        handle.writelines(lines)


#: rows per chunk of a profile dump; bounds the text a run's dumps hold at once
DUMP_ROWS = 256


def _dump_profiles(
    r: np.ndarray, phi: np.ndarray, dumps: dict[Path, tuple[list[str], list[np.ndarray]]]
) -> None:
    """One file per dump, one row per node: ``r,phi``, then the solution columns, as f17 text.

    The rows go out one DUMP_ROWS chunk at a time: the chunk's ``r,phi,``
    text is formatted once, into a format string with a ``%.17g`` slot for
    each solution cell, and each dump fills it with its own values
    (``template % values``), so a chunk's text is the only text held.  f17
    text is digits, signs, ``.``, ``e``, ``nan`` and ``inf``, never a
    ``%``, so the shared text needs no escaping.  Two columns are
    interleaved row by row in numpy before they become floats.  Every dump
    has the same column count; one file is open at a time (headers are
    written, then each chunk is appended to each file in turn).
    """
    columns = len(next(iter(dumps.values()))[1])
    row = "%.17g,%.17g," + ",".join(["%%.17g"] * columns) + "\n"
    for path, (header, _) in dumps.items():
        with open(path, "w", newline="") as handle:
            handle.write(",".join(header) + "\n")
    for start in range(0, len(r), DUMP_ROWS):
        stop = start + DUMP_ROWS
        template = "".join(map(row.__mod__, zip(r[start:stop].tolist(), phi[start:stop].tolist())))
        for path, (_, solution) in dumps.items():
            chunk = [a[start:stop] for a in solution]
            values = chunk[0] if len(chunk) == 1 else np.column_stack(chunk).ravel()
            with open(path, "a", newline="") as handle:
                handle.write(template % tuple(values.tolist()))


def cmd_run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    with open(args.config) as handle:
        try:
            cfg = json.load(handle)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # an integer literal past int's digit limit for str
            raise MalformedInput(f"config unreadable: {exc}") from exc
    _require_finite(cfg)
    error = best_match(CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise MalformedInput(f"config invalid: {error.message}") from error

    grid_scale = float(args.grid_scale)
    if not (math.isfinite(grid_scale) and grid_scale > 0):
        raise MalformedInput("--grid-scale must be finite and positive")
    if args.seed is not None and args.seed < 0:
        raise MalformedInput(f"--seed = {args.seed} must be >= 0")
    seed = int(args.seed) if args.seed is not None else int(cfg.get("seed", 0))
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(
        f"{canon}|{grid_scale!r}|{seed}".encode()
    ).hexdigest()[:16]

    pot = build_potential(cfg)
    grid = build_the_grid(cfg, pot, grid_scale)
    check_potential_on_grid(pot, grid)
    spectrum = summarize_spectrum(grid, pot)
    w = estimate_c0_delta0(spectrum, margin=cfg.get("margin", 0.5))

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

    lines, uncertified, dumps = _sweep_rows(cfg, spectrum, w, meta)

    # created only now, so a run that fails leaves no directory behind
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "spectrum.json", "w") as handle:
        # meta's numpy values: float64 scalars (floats) and arrays (radial_eigs, mu_samples, y)
        json.dump(meta, handle, indent=2, sort_keys=True, default=lambda v: v.tolist())
        handle.write("\n")
    _write_sweep(out_dir / "sweep.csv", lines)
    if dumps:
        paths = {out_dir / _dump_name(offset): dump for offset, dump in dumps.items()}
        _dump_profiles(grid.r, spectrum.phi, paths)

    print(f"wall_time_s {time.perf_counter() - t0:.3f}", file=sys.stderr)
    if cfg.get("require_certificates", False) and uncertified:
        print(f"{uncertified} of {len(lines)} rows uncertified", file=sys.stderr)
        return 4
    return 0


def _dump_name(offset: float) -> str:
    return f"solution_{offset:g}.csv"  # 6 significant digits


def _dump_offsets(cfg: dict, offsets: list[float]) -> set[float]:
    """The shift offsets whose profiles dump_solutions asks for.

    An entry matches an offset within 1e-12 relative; one that matches
    none raises MalformedInput naming it, and so do two entries whose
    offsets would share a dump file name.
    """
    wants = cfg.get("dump_solutions", [])
    chosen: dict[float, int] = {}  # offset -> index of its first matching entry
    for i, want in enumerate(wants):
        match = [off for off in offsets if abs(want - off) <= 1e-12 * max(1.0, abs(off))]
        if not match:
            raise MalformedInput(f"dump_solutions[{i}] = {want!r} matches no mu offset")
        for off in match:
            chosen.setdefault(off, i)
    named: dict[str, float] = {}
    for off, i in chosen.items():
        first = named.setdefault(_dump_name(off), off)
        if first != off:
            j = chosen[first]
            raise MalformedInput(
                f"dump_solutions[{j}] = {wants[j]!r} and dump_solutions[{i}] = {wants[i]!r} "
                f"ask for offsets {first!r} and {off!r}, both dumped to {_dump_name(off)}"
            )
    return set(chosen)


def _sweep_rows(cfg: dict, spectrum, w, meta: dict) -> tuple[list[str], int, dict]:
    """sweep.csv's row lines, the count of uncertified rows and each dump's (header, solution).

    Fills meta's window keys.  The mode's setup (MODE_SETUPS) supplies
    the shift origin (Lambda or Lambda*), its meta entries, the names of
    the dumped solution columns and a function mu -> (row cells, solution
    arrays).  An offset that vanishes against the origin (origin + offset
    == origin) raises MalformedInput naming its ``mu_offsets`` entry, or
    ``sweep``, before any row is computed.  Each row is rendered to its
    line (_sweep_line) and counted as it arrives; its cells and, unless
    it is dumped, its solution are dropped before the next row is
    computed.  Returning before the files are written lets everything the
    last row built be freed.
    """
    if cfg["mode"] == "eigen":
        meta.update(window=w.delta0, window_rule="delta0")
        return [], 0, {}
    origin, extras, header, row_at = MODE_SETUPS[cfg["mode"]](cfg, spectrum, w)
    meta.update(extras)
    lines: list[str] = []
    uncertified = 0
    dumps: dict[float, tuple[list[str], list[np.ndarray]]] = {}
    offsets = resolve_offsets(cfg)
    for offset in offsets:
        if origin + offset == origin:  # resolve_offsets sorted them: find the entry
            if "sweep" in cfg:
                name = "sweep offset"
            else:
                name = f"mu_offsets[{[float(x) for x in cfg['mu_offsets']].index(offset)}] ="
            raise MalformedInput(
                f"{name} {offset:g} vanishes against the shift origin {origin:.6g} "
                "(mu = origin has no resolvent)"
            )
    wanted = _dump_offsets(cfg, offsets)
    for offset in offsets:
        mu = origin + offset
        cells, solution = row_at(mu)
        uncertified += cells.get("certified") is False
        lines.append(_sweep_line(dict(cells, mu=mu, offset=offset)))
        if offset in wanted:
            dumps[offset] = (["r", "phi", *header], solution)
        cells = solution = None
    return lines, uncertified, dumps


def _linear_setup(cfg, spectrum, w):
    p = linear_problem(spectrum, build_f(cfg, spectrum))
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
    """two_start, start and the damping/max_iter/tol_x kwargs, defaults filled in.

    A tol_x above CERT_SLACK is refused: the image check that certifies a
    row passes an iterate stopped that early (T maps the MP bracket into itself).
    """
    solver = cfg.get("solver", {})
    kwargs = dict(
        damping=solver.get("damping", 0.5),
        max_iter=solver.get("max_iter", 500),
        tol_x=solver.get("tol_x", 1e-9),
    )
    if kwargs["tol_x"] > CERT_SLACK:
        raise MalformedInput(f"solver.tol_x = {kwargs['tol_x']:g} must be <= {CERT_SLACK:g}")
    return solver.get("two_start", True), solver.get("start", "lower"), kwargs


def _fixed_point_cells(rep) -> dict:
    """Cells a semilinear or system report fills the same way, the bracket's edges included."""
    diag = rep.uniqueness
    return dict(
        branch=rep.branch,
        bound_lo=rep.bound_lo,
        bound_hi=rep.bound_hi,
        xnorm_bound=rep.xnorm_bound,
        certified=rep.certified,
        in_window=True,
        iterations=rep.iterations,
        residual_x=rep.residual_x,
        violations=rep.violations,
        two_start_gap="" if diag is None else diag.two_start_gap,
        bo_residual="" if diag is None else diag.brezis_oswald_residual,
    )


def _semilinear_setup(cfg, spectrum, w):
    if "nonlinearity" not in cfg:
        raise MalformedInput("semilinear mode needs a 'nonlinearity' block")
    nl = build_nonlinearity(cfg["nonlinearity"], "nonlinearity")
    validate_nonlinearity(nl, spectrum.op.grid.r)
    lam = spectrum.Lambda
    two_start, start, kwargs = _solver_controls(cfg)

    def row_at(mu):
        if two_start:
            rep = two_start_diagnostics(spectrum, w, nl, mu, **kwargs)
        else:
            rep = solve_semilinear(spectrum, w, nl, mu, start=start, **kwargs)
        cells = dict(
            _fixed_point_cells(rep),
            u1_component=rep.solution.c1,
            min_ratio=rep.min_ratio,
            max_ratio=rep.max_ratio,
            x_norm=rep.solution.x_norm,
        )
        return cells, [rep.solution.values]

    meta = {"window": window_semilinear(nl, w), "window_rule": WINDOW_RULE_SEMILINEAR}
    return lam, meta, ["u"], row_at


def _system_setup(cfg, spectrum, w):
    if "matrix" not in cfg or "nonlinearity" not in cfg:
        raise MalformedInput("system mode needs 'matrix' and 'nonlinearity' blocks")
    mspec = cfg["matrix"]
    m = analyze_matrix(mspec["a"], mspec["b"], mspec["c"], mspec["d"])
    # without a nonlinearity2 block both components share one profile, validated once
    keys = [key for key in ("nonlinearity", "nonlinearity2") if key in cfg]
    nls = [build_nonlinearity(cfg[key], key) for key in keys]
    for nl in nls:
        validate_nonlinearity(nl, spectrum.op.grid.r)
    nl1, nl2 = nls[0], nls[-1]
    p = system_problem(spectrum, m, nl1, nl2)
    two_start, start, kwargs = _solver_controls(cfg)

    def row_at(mu):
        if two_start:
            rep = system_two_start(p, w, mu, **kwargs)
        else:
            rep = solve_system(p, w, mu, start=start, **kwargs)
        cells = dict(
            _fixed_point_cells(rep),
            u1_component=rep.u1.c1,
            min_ratio=float(np.min(rep.min_ratio)),
            max_ratio=float(np.max(rep.max_ratio)),
            x_norm=max(rep.u1.x_norm, rep.u2.x_norm),
            v2_xnorm=rep.v2_xnorm,
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
    # the parser's HelpFormatter and _Section objects point at each other, so
    # it stays allocated until a collection, and none runs before the run
    # ends; the young generations hold all of it
    gc.collect(1)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_report(args)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroundstateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
