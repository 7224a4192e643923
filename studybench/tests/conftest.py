"""Make the benchmark's modules importable and run from the repo root."""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def api():
    """The program under test, imported the way ``run.py`` does."""
    import run

    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        return run.load_program()
    finally:
        os.chdir(cwd)
