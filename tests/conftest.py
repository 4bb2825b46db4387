import os
from pathlib import Path

import pytest

import disttomo


@pytest.fixture
def package_env():
    """The environment for a child interpreter that imports this checkout's
    ``disttomo``, whatever ``PYTHONPATH`` the tests were started with."""
    src = str(Path(disttomo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
