"""The serving imports load only the declared product.

The product is the paper's four serving stages -- Section IV
preprocessing, the MandiblePrint CNN in inference mode, the Gaussian
cancelable template with its enclave, the cosine decision -- plus the
serving, streaming, fault-hook and metrics layers around
them.  The recording simulator (``physio``, ``imu``, ``datasets``),
training (``core.training``, the ``nn`` optimisers, losses and data
loaders), the classical-ML baselines, fusion and the scenario matrix
(``core.fusion``, ``eval``), the attacker models and every bench driver
sit outside it.  A serving process, and each pool worker it spawns,
pays the import of whatever these modules pull in, so the product set
below is the whole list a serving import may load.

Serving imports must also stay free of ``scipy.signal`` and
``scipy.stats``.  One top-level ``from scipy.signal import lfilter`` (in
the recording simulator) used to load ``scipy.signal`` into every
process that imported ``repro``.  On a 2-CPU Xeon at 2.1 GHz that was
76 of the 107 MB of resident memory and 1.65 of the 2.1 s of ``import
repro``.  Simulation and evaluation code may still import scipy inside
the functions that need it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SERVING_MODULES = (
    "repro",
    "repro.core.system",
    "repro.serve.server",
    "repro.stream.session",
)
FORBIDDEN = ("scipy.signal", "scipy.stats")

PRODUCT = frozenset(
    {
        "repro",
        "repro.config",
        "repro.errors",
        "repro.types",
        # Section IV preprocessing
        "repro.dsp",
        "repro.dsp.detection",
        "repro.dsp.filters",
        "repro.dsp.gradients",
        "repro.dsp.normalize",
        "repro.dsp.outliers",
        "repro.dsp.pipeline",
        # the extractor in inference mode
        "repro.nn",
        "repro.nn.functional",
        "repro.nn.layers",
        "repro.nn.serialize",
        "repro.nn.tensor",
        # inference, templates, decisions, 1:N scoring
        "repro.core",
        "repro.core.engine",
        "repro.core.enrollment",
        "repro.core.extractor",
        "repro.core.frontend",
        "repro.core.gallery",
        "repro.core.gallery.shard",
        "repro.core.gallery.sharded",
        "repro.core.mandibleprint",
        "repro.core.similarity",
        "repro.core.system",
        "repro.core.verification",
        "repro.security",
        "repro.security.cancelable",
        "repro.security.enclave",
        # serving, streaming, fault hooks, metrics
        "repro.serve",
        "repro.serve.batcher",
        "repro.serve.locks",
        "repro.serve.pool",
        "repro.serve.resilience",
        "repro.serve.server",
        "repro.serve.shm",
        "repro.stream",
        "repro.stream.dsp",
        "repro.stream.session",
        "repro.faults",
        "repro.faults.plan",
        "repro.faults.runtime",
        "repro.obs",
        "repro.obs.metrics",
        "repro.obs.runtime",
    }
)


@pytest.fixture(scope="module")
def loaded() -> list[str]:
    """Every module a fresh interpreter holds after the serving imports."""
    code = (
        "import importlib, json, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
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
    return json.loads(result.stdout)


def test_serving_imports_load_no_heavy_scipy_module(loaded):
    assert [m for m in FORBIDDEN if m in loaded] == []


def test_serving_imports_load_only_the_product(loaded):
    outside = [
        m
        for m in loaded
        if (m == "repro" or m.startswith("repro.")) and m not in PRODUCT
    ]
    assert outside == []
    # The list is exact, too: every entry is a module the serving
    # imports still load, so a deleted module leaves it.
    assert sorted(PRODUCT.difference(loaded)) == []
    assert len(PRODUCT) == 47
