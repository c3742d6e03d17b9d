"""The demo scripts run to completion against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankpit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("[0-9][0-9]_*.py"))
# the directory that holds the imported package, so the demos import it too
PACKAGE_ROOT = str(Path(rankpit.__file__).parent.parent)


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(demo):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
