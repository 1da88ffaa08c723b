"""Environment for tests that run fscsynth in a child interpreter."""

import os
from pathlib import Path

import fscsynth

# the directory holding the fscsynth package this test session imported
PACKAGE_ROOT = str(Path(fscsynth.__file__).resolve().parent.parent)


def child_env() -> dict:
    """The parent's environment with this fscsynth first on PYTHONPATH."""
    env = dict(os.environ)
    path = [PACKAGE_ROOT]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env
