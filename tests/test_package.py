"""The package root: its public names, resolved on first access."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepcycles


def test_every_public_name_is_its_home_modules_object():
    for name in sepcycles.__all__:
        value = getattr(sepcycles, name)
        home = value.__module__
        assert home.startswith("sepcycles."), name
        assert getattr(sys.modules[home], name) is value, name


def test_star_import_dir_and_version():
    namespace: dict = {}
    exec("from sepcycles import *", namespace)
    assert set(sepcycles.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(sepcycles, name) for name in sepcycles.__all__)
    assert set(sepcycles.__all__) <= set(dir(sepcycles))
    assert {"counting", "oracle", "verify"} <= set(dir(sepcycles))
    assert sepcycles.__version__ == "0.1.0"


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match="^module 'sepcycles' has no attribute 'nope'$"):
        sepcycles.nope
    assert not hasattr(sepcycles, "_census")


def test_import_alone_loads_no_submodule():
    # a name pulls in its home module (and what that imports) only; a
    # submodule named on the package is imported as before
    env = {**os.environ, "PYTHONPATH": str(Path(sepcycles.__file__).parents[1])}
    script = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'sepcycles')\n"
        "import sepcycles\n"
        "steps = [loaded()]\n"
        "sepcycles.p_ncycle\n"
        "steps.append(loaded())\n"
        "sepcycles.oracle.oracle_p\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    proc = subprocess.run([sys.executable, "-s", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, counted, enumerated = json.loads(proc.stdout)
    assert bare == ["sepcycles"]
    assert counted == ["sepcycles", "sepcycles.counting", "sepcycles.partitions"]
    assert enumerated == ["sepcycles", "sepcycles.counting", "sepcycles.oracle",
                          "sepcycles.partitions", "sepcycles.perm"]
