import os

import pytest

import lieform


@pytest.fixture
def child_env():
    """os.environ with this lieform first on PYTHONPATH, for child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lieform.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
