"""The cold import the benchmark breaks down still pulls in scipy.linalg and jsonschema.

bench/run.py's ``import_breakdown_ms`` parses one
``python -X importtime -c "import groundstate.experiment_cli"`` child and
raises ``BenchError`` when ``scipy.linalg`` or ``jsonschema`` is missing
from its output.  A traced benchmark run of a correct program that no
longer imports either module therefore exits 2.  This test runs the same
child and fails first.  It changes when ROADMAP item 4 (benchmark upkeep)
lets an absent module read 0 there; a change that drops either import
belongs after that.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import groundstate

IMPORT_CODE = "import groundstate.experiment_cli"
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def test_cold_import_lists_scipy_linalg_and_jsonschema():
    src = str(Path(groundstate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    imported = {m.group(4) for m in _IMPORTTIME.finditer(done.stderr)}
    assert "groundstate.experiment_cli" in imported
    assert {"scipy.linalg", "jsonschema"} <= imported
