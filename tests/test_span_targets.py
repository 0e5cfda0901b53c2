"""Every name the benchmark's span tracer patches still exists where it looks.

bench/spans.py replaces each (owner, attribute) in TARGETS through
owner.__dict__; a refactor that renames, moves or inlines one of them
breaks the benchmark, so it should fail here first.  The file is parsed,
not imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
    module, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = owner.__dict__[cls]
    assert attr in owner.__dict__, f"span {span}: {owner_path} defines no {attr}"
