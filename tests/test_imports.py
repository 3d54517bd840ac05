"""The runtime needs numpy only; mpmath and scipy are test oracles."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mplparity

_PROBE = """
import importlib, json, pkgutil, sys
import mplparity
from mplparity.evaluate import li
from mplparity.words import ArgVector, Index
names = [m.name for m in pkgutil.iter_modules(mplparity.__path__, "mplparity.")]
for name in names:
    importlib.import_module(name)
li(Index((2, 1)), ArgVector.of((0.3, 0.4)))        # series route
li(Index((2, 1)), ArgVector.of((-1.5, 2j)))        # panel route, both kernels
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("mpmath", "scipy"))
print(json.dumps({"modules": names, "loaded": loaded}))
"""


def test_runtime_imports_no_oracle_packages():
    src = str(Path(mplparity.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert {"mplparity.cli", "mplparity.selftest", "mplparity.evaluate"} <= set(report["modules"])
    assert report["loaded"] == []
