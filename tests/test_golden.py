"""Golden artifacts: small runs of every mode must reproduce recorded bytes.

Each config below is run through ``main(["run", cfg, "--out", tmp])`` and
the sha256 digest of every file it writes (``spectrum.json``,
``sweep.csv``, each ``solution_*.csv``) is compared with DIGESTS.  The
semilinear and system modes are pinned both as two-start runs and as
single-start runs with one profile dump each.  Both take one Picard
sweep, clipped Newton steps and a closing Picard sweep: the semilinear
runs on the tridiagonal Jacobian, the system runs block Gauss-Seidel
steps on the two decoupled tridiagonal blocks.  Both modes are pinned
once more with ``damping = 1``, where every step is the plain Picard
step ``u <- clip(T u)`` with no Newton step and no switch to damping,
pinned to their bytes from before the undamped-first, secant-mixed and
Newton step rules.  Each config keeps a fixed ``output_dir`` string
because ``config_hash`` (inside ``spectrum.json``) covers it; the files
go to ``--out``.

The digests were recorded with the numpy/scipy builds of the development
environment; another LAPACK or numpy version may round differently.  A
change that moves them must say why in CHANGES.md before re-recording, and
re-recording is done by printing ``digests(...)`` for each config.
"""

import hashlib
import json
from pathlib import Path

import pytest

from groundstate.experiment_cli import main

_BASE = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
    "grid": {"r_max": 3.2, "n": 300},
    "mu_offsets": [-0.2, -0.05, 0.05, 0.2],
    "output_dir": "golden-out",
}
_RATIONAL = {"kind": "rational", "kappa": 1.0, "K": 2.0}

CONFIGS = {
    "eigen": {**_BASE, "mode": "eigen"},
    "linear": {
        **_BASE,
        "mode": "linear",
        "f": {"kind": "phi_plus_phi2", "coeff": 0.5},
        "dump_solutions": [-0.05],
    },
    "semilinear": {
        **_BASE,
        "mode": "semilinear",
        "nonlinearity": _RATIONAL,
        "solver": {"two_start": True},
    },
    "system": {
        **_BASE,
        "mode": "system",
        "nonlinearity": _RATIONAL,
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        "solver": {"two_start": True},
    },
    "semilinear_single": {
        **_BASE,
        "mode": "semilinear",
        "nonlinearity": _RATIONAL,
        "solver": {"two_start": False, "start": "upper"},
        "dump_solutions": [0.05],
    },
    "system_single": {
        **_BASE,
        "mode": "system",
        "nonlinearity": _RATIONAL,
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        "solver": {"two_start": False},
        "dump_solutions": [-0.2],
    },
    "semilinear_damping1": {
        **_BASE,
        "mode": "semilinear",
        "nonlinearity": _RATIONAL,
        "solver": {"two_start": True, "damping": 1.0},
    },
    "system_damping1": {
        **_BASE,
        "mode": "system",
        "nonlinearity": _RATIONAL,
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
        "solver": {"two_start": True, "damping": 1.0},
    },
}

DIGESTS = {
    "eigen": {
        "spectrum.json": "f4be1199019aa67c485d68e8f836a73d57285455c70a975bfa3ea337204a96b0",
        "sweep.csv": "eb3429adb5cf3e7043b6b94b313cb38046f39e6db01a2129342b18261ae57db4",
    },
    "linear": {
        "solution_-0.05.csv": "71f47a6fe59a5e5438cbf898ad9aa59dd667d5466fe84d8dec7dae3e34ac4778",
        "spectrum.json": "66878a9341c38c8be62c32ac1377f4df68ed39c07c7f4058d61a22ff3fda40d3",
        "sweep.csv": "a17fb67239a63430654678fe51a7def460ea22966f9f45bf3e0ac02ff7db227c",
    },
    "semilinear": {
        "spectrum.json": "5706e4ffc90aff57a4e18bdb0c894f6c858bd2c64351331e1919da5ded09ebe1",
        "sweep.csv": "87f98286bedd64ec0e6fcf670741898260849fa46b61ef887ed52a738b92d6a3",
    },
    "system": {
        "spectrum.json": "60edf5cd2b069fe5fbb3040e8eca184763ccbee632a573a033a1de75fdb3472e",
        "sweep.csv": "c3a387f0f33393b2f45ae808b9b84ffc4a0a911058ce6076ca7b0d88c119240f",
    },
    "semilinear_single": {
        "solution_0.05.csv": "997674fdb872d003af23b77100b4e06610508b2819d904342b8fc8f70362988a",
        "spectrum.json": "9dbaa970ca05a7d4008a5770c1171f220e5b67efae1a9f698f47432c963cacce",
        "sweep.csv": "85e5d5d02b6d5c2ae8764d547b8abf8198c2f5d4a68d0707042bcb783bf4d62c",
    },
    "system_single": {
        "solution_-0.2.csv": "29b2bd2967a16c7df9866db96660a8cb11cb2b47a05f0736b9033c60b6838982",
        "spectrum.json": "4edc008d2a40ff6f2b7d345dfced817f9d477caae08a8b89a2ab4f2bb230e065",
        "sweep.csv": "a26e3dd8689e0c163dacb240ba26d105f011727ef20628ef05fb09a265073618",
    },
    "semilinear_damping1": {
        "spectrum.json": "5a163e701eb0496c5f86391b05a5a73544b25c5165f066a28c46ba3af80c52bb",
        "sweep.csv": "8f71ecc8ecb85e282504024001d1aa88b27f8451f0896938e1e82f9300fa1390",
    },
    "system_damping1": {
        "spectrum.json": "2cafc0c138ad59c330929269195a78fd267e1b0404ec955027dedb206ecb2a66",
        "sweep.csv": "722f7c672caa1023f6959f54813fdd0ea72454e1b20196733ca0d91425b8e9cd",
    },
}


def digests(cfg: dict, tmp_path: Path) -> dict[str, str]:
    """Run one config and hash every file it writes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(mode, tmp_path):
    got = digests(CONFIGS[mode], tmp_path)
    want = DIGESTS[mode]
    assert sorted(got) == sorted(want), f"{mode}: files written {sorted(got)}"
    for name, digest in want.items():
        assert got[name] == digest, f"{mode}: {name} differs from its recorded digest"
