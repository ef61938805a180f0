"""Tests for the ``python -m repro`` entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# run the entry module, then report the thread settings numpy saw
_PROBE = """
import os, runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
print(" ".join(os.environ.get(v, "-") for v in %r))
""" % (_BLAS_VARS,)


def _probe(**env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(env_overrides, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1].split()


def test_defaults_to_one_blas_thread():
    assert _probe() == ["1", "1", "1"]


@pytest.mark.parametrize("var", _BLAS_VARS)
def test_user_setting_wins(var):
    got = _probe(**{var: "3"})
    assert got[_BLAS_VARS.index(var)] == "3"
    assert got.count("1") == 2
