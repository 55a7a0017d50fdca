"""The demos' stdout, pinned byte for byte.

Each demo runs in a fresh interpreter with numpy RuntimeWarnings as errors,
as CI runs it, and its stdout is compared with the sha256 recorded before
menus were held as arrays.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "around_vs_between": "879e50fe09d7df367bae7b392824e44b9b957b59b8184df75d82ff5d3146c6f4",
    "pragmatic_recursion": "da14ea819fc37469c508de8bc0f05cc4859a0928d67baa138efe49227080e8a1",
    "signaling_equilibria": "022f6ba4190da2a66e571e71507995c696dfcf05c1d92ab1efae85a690adce23",
    "tall_posteriors": "54154f9c78e49305aef17ae0299a1d81e570014c45ff2a87c2b8ab3d4ff1e704",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_is_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
