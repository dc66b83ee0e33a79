"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import picardfuchs


def _python(*flags):
    """A runner of Python source in a new interpreter with these flags; it returns stdout."""
    src = os.path.dirname(os.path.dirname(picardfuchs.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(code):
        done = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def run_optimized():
    """Run Python source under `python -O` (asserts stripped); return its stdout."""
    return _python("-O")


@pytest.fixture
def run_fresh():
    """Run Python source in a new interpreter, so sys.modules starts empty; return its stdout."""
    return _python()
