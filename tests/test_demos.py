"""Smoke test: the demo scripts run to completion against the current package.

The demos use the public API end to end (environments, loss families,
``simulate``, regrets, bounds), so a change to that API that a demo was not
updated for fails here.  ``04_adversarial_floor.py`` is left out: it draws
2 x 200 sign vectors at T=1000 and takes about half a minute, while the four
below take a few seconds together.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_delayed_descent.py", "02_expert_aggregation.py", "03_doubling_trick.py",
         "05_delay_scaling.py"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
