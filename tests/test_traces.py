"""Tier-T, the trace-recording tier (ISSUE 6 tentpole): recording
start/abort, guard-exit deopt back to the interpreter, bridge stitching
on hot side exits, exit-budget blacklisting, persistence of trace units,
and the recorded-trace IR invariants (verifier + checkNoAlloc).

Every trace-tier jit in this file compiles with ``verify_ir=True``: a
recorded trace that fails IR verification surfaces as a
``trace.abort``/``mode="compile"`` event, which several tests assert
never happens.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st
from tests.test_differential import guest_program

from repro import CompileOptions, Lancet
from repro.errors import GuestError
from repro.pipeline import TIER_T
from repro.pipeline.tracing import ABORT_BUDGET

SUM_SRC = '''
    def f(n) {
      var acc = 0;
      var i = 0;
      while (i < n) {
        acc = acc + i;
        i = i + 1;
      }
      return acc;
    }
'''

# A branch that is stable for the first `k` iterations and then flips:
# the recorded trace speculates on the hot side and must deopt cleanly
# (restoring acc/odd/i exactly) when the cold side runs.
FLIP_SRC = '''
    def f(n, k) {
      var acc = 0;
      var odd = 0;
      var i = 0;
      while (i < n) {
        if (i < k) { acc = acc + i; }
        else { odd = odd + (i * 2); acc = acc + 1; }
        i = i + 1;
      }
      return (acc * 1000) + odd;
    }
'''


def expected_flip(n, k):
    acc = odd = 0
    for i in range(n):
        if i < k:
            acc += i
        else:
            odd += i * 2
            acc += 1
    return acc * 1000 + odd


# Alternates every iteration, so with bridges disabled the trace exits
# on every other back-edge — a worst case the exit budget must catch.
ALTERNATE_SRC = '''
    def f(n) {
      var acc = 0;
      var i = 0;
      while (i < n) {
        if ((i % 2) == 0) { acc = acc + 1; }
        else { acc = acc + 2; }
        i = i + 1;
      }
      return acc;
    }
'''

MEGA_SRC = '''
    class A { def get(x) { return x + 1; } }
    class B { def get(x) { return x * 2; } }
    class C { def get(x) { return x - 3; } }
    def make(k) {
      if (k == 0) { return new A(); }
      if (k == 1) { return new B(); }
      return new C();
    }
    def work(n) {
      var objs = [make(0), make(1), make(2)];
      var acc = 0;
      var i = 0;
      while (i < n) {
        var o = objs[i % 3];
        acc = acc + o.get(i);
        i = i + 1;
      }
      return acc;
    }
'''


def expected_mega(n):
    fns = [lambda x: x + 1, lambda x: x * 2, lambda x: x - 3]
    return sum(fns[i % 3](i) for i in range(n))


# The allocation is loop-carried (live across the back edge), so scalar
# replacement cannot sink it: it must survive into the generated code.
ALLOC_SRC = '''
    def f(n) {
      var keep = [0, 0];
      var i = 0;
      while (i < n) {
        keep = [i, i + 1];
        i = i + 1;
      }
      return keep[0] + keep[1];
    }
'''


def trace_jit(source, **knobs):
    knobs.setdefault("trace_threshold", 8)
    knobs.setdefault("bridge_threshold", 3)
    j = Lancet(options=CompileOptions(trace_tier=True, verify_ir=True,
                                      **knobs))
    j.telemetry.enable_trace()
    j.load(source)
    return j


def traces_stats(j):
    return j.stats()["traces"]


class TestRecording:
    def test_hot_loop_records_compiles_and_enters(self):
        j = trace_jit(SUM_SRC, trace_threshold=5)
        assert j.vm.call("Main", "f", [30]) == sum(range(30))
        s = traces_stats(j)
        assert s["recordings"] == 1
        assert s["compiles"] == 1
        assert s["entries"] >= 1
        (site_stats,) = s["traces"].values()
        assert site_stats["compiled"] is True
        records = [e.data for e in j.telemetry.events("trace.record")]
        assert records and records[0]["mode"] == "loop"
        # The trace unit compiles at Tier T and shows up in the tier
        # breakdown next to the method tiers.
        assert j.stats()["tiers"]["compiles_by_tier"][TIER_T] >= 1

    def test_below_threshold_never_records(self):
        j = trace_jit(SUM_SRC, trace_threshold=1000)
        assert j.vm.call("Main", "f", [30]) == sum(range(30))
        s = traces_stats(j)
        assert s["recordings"] == 0
        assert s["traces"] == {}

    def test_trace_too_long_aborts_then_blacklists(self):
        j = trace_jit(SUM_SRC, trace_threshold=5, trace_max_ops=3)
        assert j.vm.call("Main", "f", [100]) == sum(range(100))
        aborts = [e.data for e in j.telemetry.events("trace.abort")]
        assert aborts and all(a["reason"] == "trace too long"
                              for a in aborts)
        s = traces_stats(j)
        # The site stops being retried once the abort budget is spent...
        assert s["recordings"] == s["aborts"] == ABORT_BUDGET
        assert s["compiles"] == 0
        # ...and stays blacklisted on later runs.
        assert j.vm.call("Main", "f", [100]) == sum(range(100))
        assert traces_stats(j)["recordings"] == ABORT_BUDGET

    def test_loop_exit_during_recording_aborts(self):
        # The threshold equals the total back-edge count, so recording
        # starts on the loop's final back-edge and immediately runs off
        # the end of the loop instead of reaching the header anchor.
        j = trace_jit(SUM_SRC, trace_threshold=12)
        assert j.vm.call("Main", "f", [12]) == sum(range(12))
        aborts = [e.data for e in j.telemetry.events("trace.abort")]
        assert [a["reason"] for a in aborts] == \
            ["loop exited through return"]
        assert traces_stats(j)["compiles"] == 0


class TestGuardExit:
    def test_side_exit_restores_interpreter_state(self):
        j = trace_jit(FLIP_SRC, trace_threshold=5,
                      bridge_threshold=10 ** 9,
                      trace_exit_budget=10 ** 9)
        for _ in range(3):
            assert j.vm.call("Main", "f", [40, 25]) == expected_flip(40, 25)
        s = traces_stats(j)
        assert s["compiles"] >= 1
        assert s["exits"] >= 1
        exits = [e.data for e in j.telemetry.events("trace.exit")]
        assert any(e["reason"] == "branch" for e in exits)
        # The deopts flowed through the ordinary deopt machinery.
        assert any(e.data["kind"] == "interpret"
                   for e in j.telemetry.events("deopt"))

    def test_output_order_preserved_across_exit(self):
        src = '''
            def f(n, k) {
              var i = 0;
              while (i < n) {
                println(i * 2);
                if (i == k) { println(0 - i); }
                i = i + 1;
              }
              return i;
            }
        '''
        oracle = Lancet()
        oracle.load(src)
        assert oracle.vm.call("Main", "f", [30, 20]) == 30
        expected_out = oracle.vm.output()

        j = trace_jit(src, trace_threshold=5, bridge_threshold=10 ** 9,
                      trace_exit_budget=10 ** 9)
        assert j.vm.call("Main", "f", [30, 20]) == 30
        assert j.vm.output() == expected_out
        assert traces_stats(j)["exits"] >= 1


class TestBridges:
    def test_return_bridge_stitches_loop_exit(self):
        j = trace_jit(SUM_SRC, trace_threshold=5, bridge_threshold=3,
                      trace_exit_budget=10 ** 9)
        for _ in range(8):
            assert j.vm.call("Main", "f", [20]) == sum(range(20))
        s = traces_stats(j)
        assert s["stitches"] == 1
        (site_stats,) = s["traces"].values()
        assert site_stats["bridges"] == 1
        stitches = [e.data for e in j.telemetry.events("trace.stitch")]
        assert [e["kind"] for e in stitches] == ["return"]
        # After stitching, the loop exit returns from the trace directly:
        # no further side exits accumulate.
        before = traces_stats(j)["exits"]
        for _ in range(4):
            assert j.vm.call("Main", "f", [20]) == sum(range(20))
        assert traces_stats(j)["exits"] == before
        (site_stats,) = traces_stats(j)["traces"].values()
        assert site_stats["exits"] == 0

    def test_bridge_off_a_bridge_cannot_write_pruned_slot(self):
        """The inner trace's exit is first bridged to a return (the last
        outer iteration); a later bridge off that bridge's ``i < 2``
        guard runs the outer body and jumps back to the inner header.
        The outer counter ``i`` is a pruned invariant of the inner
        trace, so that stitch must be refused: the back edge could not
        carry ``i + 1`` and the stitched loop would never end. Runs in
        a subprocess so a regression fails on the timeout instead of
        hanging the suite."""
        import os
        import subprocess
        import sys
        script = '''
from repro import CompileOptions, Lancet
SRC = """
def f(a, b) {
  var i = 0;
  while (i < 2) {
    if (a > 4) { a = 1; }
    var j = 0;
    while (j < 3) { b = b + j; j = j + 1; }
    i = i + 1;
  }
  return a + b;
}
"""
j = Lancet(options=CompileOptions(trace_tier=True, verify_ir=True,
                                  trace_threshold=4, bridge_threshold=3))
j.load(SRC)
print([j.vm.call("Main", "f", [4, 15]) for _ in range(6)],
      j.telemetry.metrics.get("deoptcheck.bridge_rejects"))
'''
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[25,"] + ["25,"] * 4 + ["25]", "1"]

    def test_megamorphic_call_site_grows_bridge_chain(self):
        j = trace_jit(MEGA_SRC, trace_threshold=10, bridge_threshold=3,
                      trace_exit_budget=10 ** 9)
        for _ in range(10):
            assert j.vm.call("Main", "work", [120]) == expected_mega(120)
        s = traces_stats(j)
        assert s["aborts"] == 0
        assert s["stitches"] >= 2   # at least two receiver-class bridges
        (site_stats,) = s["traces"].values()
        assert site_stats["bridges"] >= 2
        # Steady state: with every hot receiver class stitched in (and
        # the loop exit bridged), further iterations never leave Tier T.
        before = traces_stats(j)["exits"]
        for _ in range(3):
            assert j.vm.call("Main", "work", [120]) == expected_mega(120)
        assert traces_stats(j)["exits"] == before


class TestBlacklist:
    def test_exit_budget_blacklists_thrashing_trace(self):
        j = trace_jit(ALTERNATE_SRC, trace_threshold=5,
                      bridge_threshold=10 ** 9, trace_exit_budget=5)
        for _ in range(2):
            assert j.vm.call("Main", "f", [60]) == \
                sum(1 if i % 2 == 0 else 2 for i in range(60))
        s = traces_stats(j)
        assert s["blacklists"] == 1
        assert s["traces"] == {}     # the trace unit is gone
        events = [e.data for e in j.telemetry.events("trace.blacklist")]
        assert events and events[0]["exits"] > 5
        # A blacklisted site never re-records.
        recordings = s["recordings"]
        assert j.vm.call("Main", "f", [60]) == \
            sum(1 if i % 2 == 0 else 2 for i in range(60))
        assert traces_stats(j)["recordings"] == recordings


class TestPersistence:
    def test_trace_unit_round_trips_through_code_cache(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.delenv("REPRO_NO_PERSIST", raising=False)
        opts = dict(trace_tier=True, verify_ir=True, trace_threshold=5,
                    bridge_threshold=3, cache_dir=str(tmp_path))

        j1 = Lancet(options=CompileOptions(**opts))
        j1.telemetry.enable_trace()
        j1.load(SUM_SRC)
        for _ in range(6):
            assert j1.vm.call("Main", "f", [30]) == sum(range(30))
        assert traces_stats(j1)["compiles"] >= 1

        # A fresh process image: same program, same options, warm cache.
        j2 = Lancet(options=CompileOptions(**opts))
        j2.telemetry.enable_trace()
        j2.load(SUM_SRC)
        assert j2.vm.call("Main", "f", [30]) == sum(range(30))
        s = traces_stats(j2)
        assert s["cache_loads"] == 1
        assert s["recordings"] == 0
        assert s["entries"] >= 1

    def test_blacklist_invalidates_persisted_trace(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_NO_PERSIST", raising=False)
        opts = dict(trace_tier=True, verify_ir=True, trace_threshold=5,
                    bridge_threshold=10 ** 9, trace_exit_budget=5,
                    cache_dir=str(tmp_path))
        j1 = Lancet(options=CompileOptions(**opts))
        j1.load(ALTERNATE_SRC)
        j1.telemetry.enable_trace()
        for _ in range(2):
            j1.vm.call("Main", "f", [60])
        assert traces_stats(j1)["blacklists"] == 1

        # The blacklisted unit must not come back on a warm start.
        j2 = Lancet(options=CompileOptions(**opts))
        j2.telemetry.enable_trace()
        j2.load(ALTERNATE_SRC)
        j2.vm.call("Main", "f", [60])
        assert traces_stats(j2)["cache_loads"] == 0


class TestTraceIRInvariants:
    """Every recorded trace must pass the IR verifier; checkNoAlloc runs
    over trace IR exactly as it does over method IR."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-15, 15), st.integers(-15, 15))
    def test_recorded_traces_verify_and_agree_with_interpreter(
            self, source, a, b):
        oracle = Lancet()
        oracle.load(source)
        exp_err = exp_res = None
        try:
            exp_res = oracle.vm.call("Main", "f", [a, b])
        except GuestError as exc:
            exp_err = type(exc)
        exp_out = oracle.vm.output()

        j = trace_jit(source, trace_threshold=4, bridge_threshold=3)
        for _ in range(5):
            err = res = None
            try:
                res = j.vm.call("Main", "f", [a, b])
            except GuestError as exc:
                err = type(exc)
            out = j.vm.output()
            j.vm.clear_output()
            assert (err, res, out) == (exp_err, exp_res, exp_out), source
        # verify_ir=True runs the verifier on every trace compile; a
        # verifier (or any other compile-time) failure surfaces here.
        compile_aborts = [e.data for e in j.telemetry.events("trace.abort")
                          if e.data["mode"] == "compile"]
        assert compile_aborts == [], source

    def test_back_edge_dedup_validates(self):
        # Found by the property test above: GVN deduplicates the back
        # edge's `0 * a` against the one println reads, and the
        # validator must not report that as a changed effect.
        src = ("def f(a, b) { var i0 = 0; while (i0 < 2) {"
               " println((a + (0 * a))); a = (0 * a); i0 = i0 + 1; }"
               " return 0; }")
        j = trace_jit(src, trace_threshold=4, bridge_threshold=3)
        for _ in range(5):
            assert j.vm.call("Main", "f", [0, 0]) == 0
            assert j.vm.output() == "0\n0\n"
            j.vm.clear_output()
        assert [e.data for e in j.telemetry.events("trace.abort")
                if e.data["mode"] == "compile"] == []

    def test_checknoalloc_runs_over_trace_ir(self):
        # Allocation-free loop: the demand holds for every value the
        # loop computes, and the trace still compiles and runs.
        j = trace_jit(SUM_SRC, trace_threshold=5, check_noalloc=True)
        assert j.vm.call("Main", "f", [30]) == sum(range(30))
        assert traces_stats(j)["compiles"] == 1

        # Allocating loop: the surviving array literal is reported by
        # the alloc pass over the trace's post-pipeline IR and the
        # demand rejects the trace (execution stays correct, in the
        # interpreter).
        j2 = trace_jit(ALLOC_SRC, trace_threshold=5, check_noalloc=True)
        assert j2.vm.call("Main", "f", [30]) == 29 + 30
        reports = [e.data for e in j2.telemetry.events("analysis.report")
                   if e.data["unit"].startswith("trace@")]
        assert reports and reports[-1]["noalloc_sites"] >= 1
        aborts = [e.data for e in j2.telemetry.events("trace.abort")]
        assert any(a["mode"] == "compile" and "allocation" in a["reason"]
                   for a in aborts)


class TestPolicy:
    def test_method_owned_monomorphic_loop_defers_to_method_tier(self):
        j = Lancet(options=CompileOptions(
            trace_tier=True, verify_ir=True, trace_threshold=5,
            tier1_threshold=10 ** 6, tier2_threshold=10 ** 6,
            osr_threshold=10 ** 6))
        j.telemetry.enable_trace()
        j.load(SUM_SRC)
        tf = j.compile_tiered("Main", "f")
        for _ in range(6):
            assert tf(30) == sum(range(30))
        # The method ladder owns this unit and the loop is monomorphic:
        # Tier T stays out of the way.
        s = traces_stats(j)
        assert s["recordings"] == 0
        assert s["traces"] == {}

    def test_method_owned_megamorphic_loop_still_traces(self):
        j = Lancet(options=CompileOptions(
            trace_tier=True, verify_ir=True, trace_threshold=10,
            bridge_threshold=3, tier1_threshold=10 ** 6,
            tier2_threshold=10 ** 6, osr_threshold=10 ** 6))
        j.telemetry.enable_trace()
        j.load(MEGA_SRC)
        tf = j.compile_tiered("Main", "work")
        for _ in range(6):
            assert tf(120) == expected_mega(120)
        # Megamorphic call sites are where traces beat whole-method
        # compilation, so the polymorphism override kicks in.
        assert traces_stats(j)["recordings"] >= 1

    def test_stats_block_shape(self):
        j = trace_jit(SUM_SRC, trace_threshold=5)
        j.vm.call("Main", "f", [30])
        s = traces_stats(j)
        for key in ("enabled", "recordings", "aborts", "compiles",
                    "entries", "exits", "stitches", "blacklists",
                    "cache_loads", "traces"):
            assert key in s
        assert s["enabled"] is True
        (site_stats,) = s["traces"].values()
        assert set(site_stats) == {"compiled", "exits", "bridges",
                                   "blacklisted"}

    def test_traces_block_absent_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_TIER", raising=False)
        j = Lancet()
        j.load(SUM_SRC)
        j.vm.call("Main", "f", [30])
        assert j.stats()["traces"] == {"enabled": False}
