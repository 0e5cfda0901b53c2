"""Workload definitions: seeded config generation and output checks.

Seed contract: ``make_config(name, seed)`` is a pure function of its
arguments, so a given seed gives byte-identical config text
(``config_text``).  The seed draws the mu offsets, half on each branch,
with |offset| in [OFFSET_MIN, OFFSET_MAX].  OFFSET_MAX sits below every
window measured for these problems (0.437 at n=400, 0.474 at n=2400),
and ``check_run`` verifies on every run that all offsets lie inside the
window the program reports.  The seed also fills the config's own
``seed`` field.  The program sees only the generated config.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

OFFSET_MIN = 0.02
OFFSET_MAX = 0.35
GAP_TOL = 1e-7  # largest accepted two_start_gap on the two sweeps

#: q = 1 + r^4, N = 3, r_max = 3.2 for every workload
_PROBLEM = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
}
_R_MAX = 3.2
_RATIONAL = {"kind": "rational", "kappa": 1.0, "K": 2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    n: int
    shifts: int
    dumps: int
    two_start: bool
    #: spans the traced pass must record on this workload
    spans: tuple[str, ...]


_COMMON_SPANS = (
    "radial_grid.make_grid",
    "spectral.summarize_spectrum",
    "spectral.principal_eigenpair",
    "spectral.second_eigenvalue",
    "spectral.solve_shifted",
    "spectral.matvec",
    "groundstate_space.estimate_c0_delta0",
    "groundstate_space.projected_resolvent_norm",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear_fine",
            why=(
                "linear mode at n=2400: the dense O(n^2) c0/delta0 window is ~97% of "
                "the run; one banded solve per mu and 4 profile dumps for the CLI writes"
            ),
            mode="linear",
            n=2400,
            shifts=16,
            dumps=4,
            two_start=False,
            spans=_COMMON_SPANS + ("linear_solver.certify_theorem1",),
        ),
        Workload(
            name="semilinear_sweep",
            why=(
                "semilinear two-start at n=400, 48 shifts: ~58 fixed-point solves per "
                "mu at one shift dominate; the window is ~18%"
            ),
            mode="semilinear",
            n=400,
            shifts=48,
            dumps=0,
            two_start=True,
            spans=_COMMON_SPANS
            + (
                "semilinear_solver.two_start_diagnostics",
                "semilinear_solver.apply_T",
                "semilinear_solver.brezis_oswald_check",
            ),
        ),
        Workload(
            name="system_sweep",
            why=(
                "2x2 system two-start at n=400, 24 shifts: ~123 banded solves per mu "
                "alternating two shifts, so one-slot factor caches thrash"
            ),
            mode="system",
            n=400,
            shifts=24,
            dumps=0,
            two_start=True,
            spans=_COMMON_SPANS
            + (
                "coop_system.system_two_start",
                "coop_system.solve_system",
                "coop_system.coupled_uniqueness_check",
            ),
        ),
    )
}


def draw_offsets(rng: random.Random, count: int) -> list[float]:
    """count distinct offsets, half below and half above the shift origin."""
    half = count // 2
    out: list[float] = []
    for sign, k in ((-1.0, half), (1.0, count - half)):
        seen: set[float] = set()
        while len(seen) < k:
            seen.add(round(rng.uniform(OFFSET_MIN, OFFSET_MAX), 6))
        out.extend(sign * mag for mag in sorted(seen))
    return out


def make_config(name: str, seed: int, output_dir: str) -> dict:
    """The run config for one workload and seed."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    offsets = draw_offsets(rng, wl.shifts)
    cfg = {
        "mode": wl.mode,
        **_PROBLEM,
        "grid": {"r_max": _R_MAX, "n": wl.n},
        "mu_offsets": offsets,
        "require_certificates": True,
        "output_dir": output_dir,
        "seed": seed,
    }
    if wl.mode == "linear":
        cfg["f"] = {"kind": "phi_plus_phi2", "coeff": 0.5}
    else:
        cfg["nonlinearity"] = dict(_RATIONAL)
        cfg["solver"] = {"two_start": wl.two_start}
    if wl.mode == "system":
        cfg["matrix"] = {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0}
    if wl.dumps:
        cfg["dump_solutions"] = sorted(rng.sample(offsets, wl.dumps))
    return cfg


def config_text(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def offset_tag(offset: float) -> str:
    """File-name tag the CLI gives a dumped profile."""
    return format(offset, "g")


def check_run(wl: Workload, cfg: dict, code: int, out_dir: Path) -> list[str]:
    """Every way one run's outputs can fail; empty when the run is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(out_dir / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        meta = json.loads((out_dir / "spectrum.json").read_text())
        return _check_outputs(wl, cfg, rows, meta, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]


def _check_outputs(wl: Workload, cfg: dict, rows: list[dict], meta: dict, out_dir: Path):
    problems = []
    offsets = sorted(cfg["mu_offsets"])
    if [float(r["offset"]) for r in rows] != offsets:
        problems.append(f"{len(rows)} rows for {len(offsets)} generated shifts")
    if any(r["certified"] != "1" for r in rows):
        problems.append("uncertified row")
    if any(r["violations"] != "0" for r in rows):
        problems.append("bracket/rectangle violations")
    if wl.two_start and any(
        r["two_start_gap"] == "" or float(r["two_start_gap"]) > GAP_TOL for r in rows
    ):
        problems.append(f"two_start_gap above {GAP_TOL:g}")
    if any(abs(off) >= meta["window"] for off in offsets):
        problems.append(f"offset outside the window {meta['window']:.6g}")
    for off in cfg.get("dump_solutions", []):
        if not (out_dir / f"solution_{offset_tag(off)}.csv").is_file():
            problems.append(f"missing profile dump for offset {off:g}")
    return problems
