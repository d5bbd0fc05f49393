"""Shared benchmark fixtures (small sizes — the paper-scale tables are
produced by ``python benchmarks/harness.py``)."""

import faulthandler
import os
import sys

# Benchmarks measure the optimizer, not the checkers: the speculation-
# soundness validators default OFF here (REPRO_VALIDATE=1 in the
# environment re-enables them, e.g. for the CI smoke artifact).
os.environ.setdefault("REPRO_VALIDATE", "0")

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from repro import Lancet
from repro.apps import load_app
from repro.optiml import load_optiml


#: Seconds one test may run before every thread's stack is dumped and the
#: process exits, so a runaway guest or compiler fails instead of hanging.
HANG_TIMEOUT_S = 600


@pytest.fixture(autouse=True)
def _fail_on_hang():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="module")
def csv_setup():
    from repro.apps.csv_baselines import accessed_keys, generate_csv
    lines = generate_csv(4000)
    keys = accessed_keys()
    jit = Lancet()
    load_app(jit, "csv", module="CsvApp")
    # Warm: compile the specialized runner once. Copy the result — it is
    # the live guest accumulator, which re-running the runner mutates.
    expected = list(jit.vm.call("CsvApp", "flagQuery", [lines, keys]))
    runner = jit.compile_log[-1][1]
    return {"lines": lines, "keys": keys, "jit": jit,
            "expected": expected, "runner": runner}


@pytest.fixture(scope="module")
def kmeans_setup():
    from repro.optiml.reference import kmeans_data
    n, k, iters = 20000, 4, 3
    px, py = kmeans_data(n, k)
    jit = Lancet()
    load_optiml(jit)
    load_app(jit, "kmeans", module="Kmeans")
    jit.delite.register_data(px)
    jit.delite.register_data(py)
    cf = jit.vm.call("Kmeans", "makeCompiled", [px, py, k, iters])
    cf(0)
    return {"px": px, "py": py, "k": k, "iters": iters, "jit": jit,
            "cf": cf}


@pytest.fixture(scope="module")
def logreg_setup():
    from repro.optiml.reference import logreg_data
    n, d, iters, alpha = 20000, 8, 3, 0.05
    cols, y = logreg_data(n, d)
    jit = Lancet()
    load_optiml(jit)
    load_app(jit, "logreg", module="Logreg")
    for c in cols:
        jit.delite.register_data(c)
    jit.delite.register_data(y)
    cf = jit.vm.call("Logreg", "makeCompiled", [cols, y, iters, alpha])
    cf(0)
    return {"cols": cols, "y": y, "iters": iters, "alpha": alpha,
            "jit": jit, "cf": cf}


@pytest.fixture(scope="module")
def namescore_setup():
    from repro.optiml.reference import names_data
    names = names_data(5000)
    jit = Lancet()
    load_optiml(jit)
    load_app(jit, "namescore", module="Namescore")
    cf = jit.vm.call("Namescore", "makeCompiled", [names])
    cf(0)
    return {"names": names, "jit": jit, "cf": cf}
