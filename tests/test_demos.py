"""Smoke test: the fast demos run to completion as scripts.

Each demo runs in its own interpreter with ``src`` on PYTHONPATH, as
README shows.  06 (radial run) and 07 (scattering) take seconds, not
tenths of one, and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ("01_spectral_kernels", "02_mass_quadrature",
              "03_memory_operator", "04_spectral_averaging", "05_dispersion",
              "08_phenomenology")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_0(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
