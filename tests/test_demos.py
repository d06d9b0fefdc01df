"""Every script in demos/ runs against the library in src/ and prints its golden output.

The expected stdout of `demos/NAME.py` is `tests/data/demos/NAME.txt`.  The
demos are deterministic, so a change in the library that alters any printed
decision, witness or number shows up as a byte difference.  After a change
that is meant to alter a demo's output, regenerate its file with
`PYTHONPATH=src python demos/NAME.py > tests/data/demos/NAME.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "demos"


def test_demos_exist():
    assert len(DEMOS) >= 6
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{script.stem}.txt").read_bytes()
