"""Every narrative script under demos/ runs to completion and prints what
tests/demo_stdout/<demo>.txt holds, byte for byte.

After a change meant to alter a demo's output, regenerate its file from the
repository root:

    PYTHONPATH=src python demos/<demo>.py > tests/demo_stdout/<demo>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == (STDOUT / (demo.stem + ".txt")).read_text()
