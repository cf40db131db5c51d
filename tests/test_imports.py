"""Guard: ``repro``'s import path and every simulation stay NumPy-free.

No simulation needs NumPy; only Fig. 7's latency statistics and the
benchmark-only trace helpers (``TransactionTrace.run_tables`` and
``content_key``) import it, inside their bodies.  A module-level
``import numpy`` anywhere on the paths below would make every CLI call
and every cold worker pay for it again, so this runs them in a fresh
interpreter and checks ``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

import repro, repro.analysis, repro.exp, repro.sim.api, repro.__main__
from repro.exp import RunSpec
from repro.exp.runner import execute_spec

tiny = dict(workload="tpcc", cores=2, transactions=4, seed=7,
            scale="tiny")
specs = [
    RunSpec(scheduler="base", **tiny),
    RunSpec(scheduler="strex", **tiny),
    RunSpec(scheduler="base", prefetcher="nextline", replacement="srrip",
            **tiny),
    RunSpec(mode="overlap", txn_type="NewOrder", **tiny),
    RunSpec(mode="fptable", **tiny),
]
kinds = [type(execute_spec(spec)).__name__ for spec in specs]
print(json.dumps({"kinds": kinds, "numpy": "numpy" in sys.modules}))
"""


def test_imports_and_cells_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["kinds"] == ["RunResult"] * 3 + ["OverlapResult",
                                                   "FootprintResult"]
    assert report["numpy"] is False
