"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import picardfuchs


@pytest.fixture
def run_optimized():
    """Run Python source under `python -O` (asserts stripped); return its stdout."""
    src = os.path.dirname(os.path.dirname(picardfuchs.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(code):
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
