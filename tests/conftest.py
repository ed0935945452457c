"""Ensures the tests directory is importable (for helpers.py), and fails
any test that leaves a child process behind: a training helper or a
``fan_out`` child that was not reaped."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else "the test left a child process running")
