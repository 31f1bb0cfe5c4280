import os
from pathlib import Path

import pytest

from passgain.geometry import SystemConfig, derive_constants

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Put ``src`` on the PYTHONPATH of every child process the tests start
    (``python -m passgain``, ``python -c "import passgain.cli"``), so the suite
    runs from a plain checkout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def cfg():
    """Default 28 GHz scenario with the lossless waveguide."""
    return SystemConfig(alpha_wg_db_per_m=0.0)


@pytest.fixture(scope="session")
def consts(cfg):
    return derive_constants(cfg)
