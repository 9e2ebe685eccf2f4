"""The demos that call the model API run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kooplift as kl

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_exact_recovery.py", "02_worst_case_certificate.py",
                                    "03_learn_invariant_dictionary.py"])
def test_demo_exits_zero(script):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(kl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
