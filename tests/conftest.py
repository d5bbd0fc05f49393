"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import os

# The speculation-soundness checkers (per-pass translation validation +
# deopt-state verification) run default-ON across the test suite, so
# every compile in every test doubles as a validator run. An explicit
# REPRO_VALIDATE=0 in the environment still wins.
os.environ.setdefault("REPRO_VALIDATE", "1")

import pytest

from repro import Lancet
from repro.interp.interpreter import Interpreter


#: Seconds one test may run before every thread's stack is dumped and the
#: process exits, so a runaway guest or compiler fails instead of hanging.
HANG_TIMEOUT_S = 600


@pytest.fixture(autouse=True)
def _fail_on_hang():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def vm():
    return Interpreter()


@pytest.fixture
def jit():
    return Lancet()


def load(source, **kw):
    """Fresh Lancet with ``source`` loaded."""
    j = Lancet(**kw)
    j.load(source)
    return j


def run_both(source, fn_name, args, module="Main"):
    """Differential helper: run a guest function both interpreted and
    compiled; assert results agree; return the (shared) result."""
    j = load(source)
    interp_result = j.vm.call(module, fn_name, list(args))
    compiled = j.compile_function(module, fn_name)
    compiled_result = compiled(*args)
    assert compiled_result == interp_result, (
        "compiled %r != interpreted %r for %s%r"
        % (compiled_result, interp_result, fn_name, tuple(args)))
    return compiled_result
