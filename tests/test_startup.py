"""The start-up contract: `import momentgibbs` loads no layer and no numpy,
every exported name still resolves on first use, and each CLI command loads
only the modules its body imports (and what those modules import).

Each probe runs in a fresh interpreter, since a loaded module stays in
`sys.modules`. The probes run a few at a time to keep this file near a
second; no assertion is about time.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import DATA_DIR

SUBMODULES = (
    "duality", "errors", "gibbs", "microstates", "moment_solver", "polytope", "state_space", "toric",
)
BASE = {"cli", "errors", "state_space"}  # every command parses its document
# numpy.random (6 MB of RSS and 10-20 ms, `hashlib` through `secrets`) loads only
# for the Philox stream of `microstates` and the grid of `check`
RANDOM = {"microstates", "check"}
LOADS = {
    "forward": {"gibbs"},
    "sweep": {"gibbs"},
    "invert": {"moment_solver", "gibbs", "polytope"},
    "hull": {"polytope"},
    "limit": {"polytope"},
    "microstates": {"gibbs", "microstates"},
    "toric": {"toric", "gibbs"},
    "check": {"duality", "moment_solver", "gibbs", "polytope"},
}
_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'numpy' or m.startswith(('numpy.', 'momentgibbs.')))))"
)


def _argvs(command: str) -> list[list[str]]:
    """The command on every data/ set, with arguments that exit 0."""
    argvs = []
    for path in sorted(DATA_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        ones = ",".join(["0.3"] * doc["dim"])
        extra = {
            "forward": ["--beta", ones],
            "sweep": ["--from", "-1", "--to", "1", "--steps", "5"],
            "invert": ["--mean", ",".join(map(repr, np.mean(doc["points"], axis=0).tolist()))],
            "hull": [],
            "limit": ["--direction", ones],
            "microstates": ["--total", "100", "--seed", "3", "--beta", ones],
            "toric": ["--beta", ones],
            "check": ["--points", "5"],
        }[command]
        argvs.append([command, str(path), *extra])
    return argvs


_PROBES = {
    "bare": f"import json, sys, momentgibbs; {_LOADED}",
    "submodules": (
        "import json, momentgibbs as mg; "
        f"print(json.dumps([getattr(mg, m).__name__ for m in {SUBMODULES!r}]))"
    ),
    "names": (
        "import json, momentgibbs as mg\n"
        "star = {}\n"
        "exec('from momentgibbs import *', star)\n"
        "for name in mg.__all__:\n"
        "    exec(f'from momentgibbs import {name}', {})\n"
        "try:\n"
        "    mg.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'all': mg.__all__, 'star': sorted(set(star) - {'__builtins__'}),\n"
        "    'dir': dir(mg), 'unknown': unknown,\n"
        "    'same': all(getattr(mg, n) is star[n] for n in mg.__all__)}))"
    ),
    **{
        command: (
            "import json, sys, contextlib, io, momentgibbs.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {_argvs(command)!r}]\n"
            f"print(json.dumps(codes)); {_LOADED}"
        )
        for command in LOADS
    },
}


@pytest.fixture(scope="module")
def probes() -> dict[str, list]:
    def run(code: str) -> list:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return [json.loads(line) for line in done.stdout.splitlines()]

    with ThreadPoolExecutor(max_workers=3) as pool:
        return dict(zip(_PROBES, pool.map(run, _PROBES.values())))


def test_bare_import_loads_no_layer_and_no_numpy(probes):
    assert probes["bare"] == [[]]


def test_submodules_resolve_after_a_bare_import(probes):
    assert probes["submodules"] == [[f"momentgibbs.{m}" for m in SUBMODULES]]


def test_every_exported_name_resolves(probes):
    (names,) = probes["names"]
    assert len(names["all"]) == 55 and names["all"] == sorted(set(names["all"]))
    assert names["star"] == names["all"]
    assert names["same"]
    assert set(names["all"]) | set(SUBMODULES) <= set(names["dir"])
    assert names["unknown"] == "module 'momentgibbs' has no attribute 'no_such_name'"


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_command_loads_only_its_modules(probes, command):
    codes, loaded = probes[command]
    assert codes == [0] * len(_argvs(command))
    package = sorted(m for m in loaded if m.startswith("momentgibbs."))
    assert package == sorted(f"momentgibbs.{m}" for m in BASE | LOADS[command])
    assert "numpy" in loaded
    assert ("numpy.random" in loaded) == (command in RANDOM)
