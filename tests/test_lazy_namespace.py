"""The on-demand package namespaces stay complete.

``repro`` and the subpackages whose ``__init__`` resolves its public
names on first read (PEP 562) must still expose every ``__all__`` name
through ``getattr`` and ``dir()``, and ``from repro import *`` must bind
all of them.  The checks run in a fresh interpreter, where nothing is
imported yet, so the on-demand path is the one exercised.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.schedule",
    "repro.simulation",
    "repro.workloads",
)

_PROBE = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
eager = sorted(name for name in package.__all__ if name in vars(package))
listed = set(dir(package))
missing = [name for name in package.__all__ if name not in listed]
resolved = [
    name for name in package.__all__
    if getattr(package, name) is vars(package)[name]
]
print(json.dumps({"eager": eager, "missing_from_dir": missing,
                  "resolved": len(resolved), "total": len(package.__all__)}))
"""

_STAR = """
import json
from repro import *
import repro
print(json.dumps([name for name in repro.__all__ if name not in globals()]))
"""


def _run(code: str, *args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_on_demand(package):
    report = _run(_PROBE, package)
    # Nothing public is bound before it is read ...
    assert report["eager"] == []
    # ... yet dir() lists every name, and getattr resolves and caches it.
    assert report["missing_from_dir"] == []
    assert report["resolved"] == report["total"] > 0


def test_star_import_binds_every_public_name():
    assert _run(_STAR) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    module = __import__(package, fromlist=["_"])
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
