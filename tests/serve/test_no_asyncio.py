"""``repro`` never loads asyncio.

The serve kernel (``repro.serve.vtime``) replaced the asyncio event
loop, and a process that loads no asyncio is a few MB smaller.  A fresh
interpreter imports every ``repro`` module, runs a small service, and
must still have no asyncio module loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):  # running it starts the CLI
        importlib.import_module(info.name)
from repro.serve import ServeRunConfig, run_serve
report = run_serve(ServeRunConfig(days=1, clients=1)).report
assert report["admission"]["offered"] > 0, report["admission"]
loaded = sorted(name for name in sys.modules
                if name == "asyncio" or name.startswith("asyncio."))
assert not loaded, f"asyncio modules loaded: {loaded}"
"""


def test_repro_runs_serve_without_loading_asyncio():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env=env, cwd=str(REPO_ROOT), timeout=600)
    assert completed.returncode == 0, completed.stderr[-2000:]
