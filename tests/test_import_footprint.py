"""Serving imports must stay free of ``scipy.signal`` and ``scipy.stats``.

One top-level ``from scipy.signal import lfilter`` (in the recording
simulator) used to load ``scipy.signal`` into every process that
imported ``repro``.  On a 2-CPU Xeon at 2.1 GHz that was 76 of the
107 MB of resident memory and 1.65 of the 2.1 s of ``import repro``;
without it, ``import repro`` takes 36 MB and about 0.4 s.  Each pool
worker process pays the import again, so the guard protects every
serving process.  Simulation and evaluation code may still import
scipy inside the functions that need it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SERVING_MODULES = (
    "repro",
    "repro.core.system",
    "repro.serve.server",
    "repro.stream.session",
)
FORBIDDEN = ("scipy.signal", "scipy.stats")


def test_serving_imports_load_no_heavy_scipy_module():
    code = (
        "import importlib, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(','.join(m for m in {FORBIDDEN!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == ""
