"""The benchmark tracer (bench/tracer.py) still finds what it wraps.

The tracer patches package functions and methods by name and skips a target
that no longer exists, so a rename would quietly blind a per-layer metric.
"""

import json
import os
import subprocess
import sys

from tests.conftest import REPO_ROOT

# the one stale target: the runner writes level samples with write_samples_npy
_KNOWN_MISSING = {"artifacts.write_samples_csv"}


def test_the_tracer_installs_on_every_layer_it_names():
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracer\n"
        "tr = tracer.Tracer()\n"
        "tracer.install(tr)\n"
        "print(json.dumps({'missing': tr.missing, 'errors': tr.hook_errors}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(REPO_ROOT / "bench")],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result["missing"]) <= _KNOWN_MISSING
    assert result["errors"] == 0
