import json
import os
import pathlib

import pytest

import momentgibbs as mg

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"

# the CLI tests start `python -m momentgibbs` in child processes: give them
# the src/ that pyproject.toml puts on this process's path
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)


def load_doc(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text())


@pytest.fixture
def two_state():
    return mg.new_state_set(1, [[0], [1]])


@pytest.fixture
def three_state():
    return mg.new_state_set(1, [[0], [1], [2]])


@pytest.fixture
def four_level():
    return mg.new_state_set(1, [[0], [1], [2], [5]])


@pytest.fixture
def square():
    return mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [1, 1]])


@pytest.fixture
def collinear():
    return mg.new_state_set(2, [[0, 0], [1, 1], [2, 2]])
