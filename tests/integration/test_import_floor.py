"""Guard the import floor: what a simulation process loads before it runs.

Importing the CLI and the harness must not load OpenSSL's ``_hashlib``
(digests come from the built-in SHA-256, :mod:`repro.sim.digest`) or
``multiprocessing`` and what it drags in (``socket``, ``pickle``): only a
``Sweep.run(workers>1)`` pool needs those, and it imports them itself.
The check runs in a fresh interpreter, because this test process has
long since imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

FLOOR_MODULES = ("_hashlib", "multiprocessing", "socket", "pickle")

SCRIPT = """
import json, sys
import repro.cli, repro.harness.runner, repro.harness.experiments
import repro.harness.workloads
floor = sorted(name for name in %r if name in sys.modules)

from repro.harness.sweep import Sweep
sweep = (Sweep().systems("dirnnb", "typhoon-stache")
         .workloads(("ocean", "small")).cache_sizes(2048).seeds(1))
pooled = sweep.run(nodes=2, workers=2, store=None).rows
pool_imported = "multiprocessing" in sys.modules
serial = sweep.run(nodes=2, workers=1, store=None).rows
print(json.dumps({"floor": floor, "pool_imported": pool_imported,
                  "same_rows": pooled == serial, "cells": len(serial)}))
""" % (FLOOR_MODULES,)


def test_floor_excludes_openssl_and_multiprocessing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["floor"] == [], (
        f"{report['floor']} loaded by importing the CLI and harness")
    assert report["pool_imported"]
    assert report["cells"] == 2
    assert report["same_rows"]
