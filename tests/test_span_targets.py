"""Every name the benchmark's span tracer patches exists and is called there.

bench/spans.py replaces each (owner, attribute) in TARGETS through
owner.__dict__; a refactor that renames, moves or inlines one of them
breaks the benchmark, so it should fail here first.  A call that does not
go through the patched name (a solver bound at definition time, or
imported locally) would leave its traced metrics at 0, so one run per
mode checks that every patched name is really called.  The file is
parsed, not imported or edited.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

from groundstate.experiment_cli import main

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def span_targets() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS")


TARGETS = span_targets()


@pytest.mark.parametrize(
    "owner_path, attr, span", TARGETS, ids=[span for _, _, span in TARGETS]
)
def test_span_target_resolves(owner_path, attr, span):
    owner = resolve_owner(owner_path)
    assert attr in owner.__dict__, f"span {span}: {owner_path} defines no {attr}"


def resolve_owner(owner_path: str):
    module, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module)
    return owner.__dict__[cls] if cls else owner


_BASE = {
    "space_dim": 3,
    "potential": {"kind": "power", "c": 1.0, "s": 4.0},
    "grid": {"r_max": 3.2, "n": 120},
    "mu_offsets": [-0.05, 0.05],
    "output_dir": "spans-out",
}
_RATIONAL = {"kind": "rational", "kappa": 1.0, "K": 2.0}
MODE_CONFIGS = (
    {**_BASE, "mode": "eigen"},
    {**_BASE, "mode": "linear", "f": {"kind": "phi_plus_phi2", "coeff": 0.5}},
    {**_BASE, "mode": "semilinear", "nonlinearity": _RATIONAL},
    {
        **_BASE,
        "mode": "system",
        "nonlinearity": _RATIONAL,
        "matrix": {"a": 0.0, "b": 1.0, "c": 4.0, "d": 0.0},
    },
)


def test_every_span_target_is_called(tmp_path, monkeypatch):
    calls = Counter()

    def counting(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner_path, attr, span in TARGETS:
        owner = resolve_owner(owner_path)
        monkeypatch.setattr(owner, attr, counting(span, owner.__dict__[attr]))
    for cfg in MODE_CONFIGS:
        path = tmp_path / f"{cfg['mode']}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / cfg["mode"])]) == 0
    never = [span for _, _, span in TARGETS if calls[span] == 0]
    assert not never, f"patched but never called: {never}"
