import os
from pathlib import Path

import pytest
from hypothesis import settings

from passgain.geometry import SystemConfig

SRC = Path(__file__).resolve().parent.parent / "src"

# HYPOTHESIS_PROFILE=ci (set in CI) derives each property test's examples
# from the test alone, so a CI failure replays locally under the same profile,
# and prints the @reproduce_failure blob of every failing example
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
