"""Self-tests for the benchmark's own logic (not the program under test).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from measure import (REFERENCE_CAL_S, Recorder, beyond, percentile,  # noqa: E402
                     tail)
from spans import NullTracer, Tracer, covered, layer_split, self_times  # noqa: E402


# -- tail percentile ------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("n, p", [(20, 50.0), (99, 50.0), (100, 90.0),
                                  (999, 90.0), (1000, 99.0), (9999, 99.0),
                                  (10000, 99.9), (50000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    chosen, value, n_beyond = tail(list(range(n)))
    assert chosen == p
    assert n_beyond >= 10
    assert n_beyond == beyond(n, p)
    assert value == percentile(range(n), p)


def test_tail_falls_back_to_median_on_few_samples():
    chosen, __, n_beyond = tail([3.0, 1.0, 2.0])
    assert chosen == 50.0 and n_beyond == 1


def test_tail_samples_beyond_are_larger():
    values = [float(x % 97) for x in range(1500)]
    chosen, value, n_beyond = tail(values)
    assert sum(1 for v in values if v > value) <= n_beyond


# -- self-time arithmetic -------------------------------------------------------


def span(sid, name, start, end, parent=None, op=1, size=0):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "size": size}


def test_covered_merges_overlaps():
    assert covered([(1, 4), (3, 6), (8, 9)]) == 6
    assert covered([]) == 0


def test_self_time_on_synthetic_tree():
    # op [0, 10] -> compiler [1, 5] -> pipeline [2, 4]
    #            -> lms [6, 8]
    spans = [span(1, "op", 0, 10), span(2, "compiler", 1, 5, parent=1),
             span(3, "pipeline", 2, 4, parent=2), span(4, "lms", 6, 8,
                                                      parent=1)]
    selfs = self_times(spans)
    assert selfs == {1: 4, 2: 2, 3: 2, 4: 2}
    split = layer_split(spans)
    assert split == {"code": 4, "compiler": 2, "pipeline": 2, "lms": 2}
    assert sum(split.values()) == 10     # self times partition the op


def test_layer_split_skips_spans_outside_ops_and_merges_cache_spans():
    spans = [span(1, "jit", 0, 3, op=None),
             span(2, "op", 3, 9), span(3, "codecache.load", 4, 6, parent=2),
             span(4, "codecache.load", 4.5, 5.5, parent=3),
             span(5, "codecache.store", 7, 8, parent=2)]
    split = layer_split(spans)
    assert "jit" not in split
    assert split["codecache"] == pytest.approx(3.0)
    assert split["code"] == pytest.approx(3.0)


class _Target:
    def work(self, x):
        return x + 1


class _Child(_Target):
    pass


def test_tracer_wraps_and_restores_entry_points():
    module = types.ModuleType("perfbench_fake_layer")
    module.Target, module.Child = _Target, _Child
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        missing = tracer.install([
            ("outer", module.__name__, "Target.work"),
            ("inner", module.__name__, "Child.work"),
            ("gone", module.__name__, "Nope.work"),
        ])
        assert [m[0] for m in missing] == ["gone"]
        with tracer.op("op-1"):
            assert _Target().work(1) == 2
            assert _Child().work(2) == 3
        tracer.uninstall()
        assert "work" not in _Child.__dict__
        assert _Target.work.__name__ == "work"
        _Target().work(0)
        names = [s["name"] for s in tracer.dump()]
        assert names == ["outer", "outer", "inner", "op"]
        assert all(s["op"] == "op-1" for s in tracer.dump())
    finally:
        del sys.modules[module.__name__]


# -- seeded generators -----------------------------------------------------------


def test_generators_are_stable_per_seed():
    assert gen.compile_corpus(7) == gen.compile_corpus(7)
    assert gen.compile_corpus(7) != gen.compile_corpus(8)
    corpus = gen.warmup_corpus(7)
    assert corpus == gen.warmup_corpus(7)
    assert gen.warmup_schedule(7, corpus) == gen.warmup_schedule(7, corpus)
    assert gen.warmup_schedule(7, corpus) != gen.warmup_schedule(8, corpus)
    fleet = gen.fleet_corpus(7)
    assert gen.fleet_stream(7, fleet, 10) == gen.fleet_stream(7, fleet, 10)
    assert gen.csv_lines(7, 50) == gen.csv_lines(7, 50)
    assert gen.kmeans_points(7, 40, 3) == gen.kmeans_points(7, 40, 3)
    assert gen.logreg_columns(7, 40, 3) == gen.logreg_columns(7, 40, 3)
    assert gen.names(7, 40) == gen.names(7, 40)


def test_corpus_cost_profile_does_not_depend_on_seed():
    a, b = gen.compile_corpus(1), gen.compile_corpus(2)
    assert [len(x["source"].splitlines()) for x in a] == \
        [len(x["source"].splitlines()) for x in b]


def test_zipf_counts_are_exact_and_skewed():
    counts = gen.zipf_counts(40, 1000, 0.7)
    assert sum(counts) == 1000
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1] > 0
    rng_a, rng_b = gen.random.Random(1), gen.random.Random(2)
    a = gen.zipf_stream(rng_a, 40, 1000, 0.7)
    b = gen.zipf_stream(rng_b, 40, 1000, 0.7)
    assert a != b and sorted(a) == sorted(b)


def test_fleet_stream_shape():
    corpus = gen.fleet_corpus(3)
    stream = gen.fleet_stream(3, corpus, sessions=12, per_session=6)
    assert len(stream) == 12 and all(len(s) == 6 for s in stream)
    assert all(0 <= shape < corpus["shapes"] for s in stream
               for shape, __ in s)


# -- error counting --------------------------------------------------------------


def test_wrong_output_counts_as_failed():
    rec = Recorder()
    assert rec.op(NullTracer(), 1, lambda: 41, 41)
    assert not rec.op(NullTracer(), 2, lambda: 41, 42)
    assert rec.attempted == 2 and rec.failed == 1
    assert len(rec.latencies) == 2
    assert "expected 42" in rec.failures[0]


def test_exception_counts_as_failed_without_latency():
    rec = Recorder()

    def boom():
        raise RuntimeError("guest crashed")

    assert not rec.op(NullTracer(), 1, boom, None)
    assert rec.attempted == 1 and rec.failed == 1
    assert len(rec.latencies) == 0
    assert "guest crashed" in rec.failures[0]


def test_end_to_end_reports_error_rate():
    rec = Recorder(auto_calibrate=False)
    for i in range(30):
        rec.op(NullTracer(), i, lambda i=i: i, i if i % 10 else -1)
    rec.setup, rec.cold, rec.cycles = [(0, 0.5)], [(0, 0.01)], [(0, 1.0)]
    rec.cycle_ops = [30]
    values, extra = rec.end_to_end(90.0)
    assert extra["error_rate"] == pytest.approx(0.1)
    assert values["throughput_ops_s"][0] == 30.0


# -- host-speed scaling ---------------------------------------------------------


def test_samples_scale_by_host_speed_around_them():
    rec = Recorder(auto_calibrate=False)
    # The host runs at reference speed until t = 10, then at half speed.
    rec.calib = [(float(t), REFERENCE_CAL_S * (1 if t < 10 else 2))
                 for t in range(20)]
    rec.latencies = [(2.0, 0.004), (17.0, 0.008)]
    rec.setup = [(1.0, 0.5), (18.0, 1.0)]
    rec.cold = [(3.0, 0.1), (16.0, 0.2)]
    rec.cycles = [(5.0, 1.0), (15.0, 2.0), (16.0, 1.0)]
    rec.cycle_ops = [1, 1, 1]
    values = rec.end_to_end(50.0)[0]
    assert values["latency_p50_ms"][0] == pytest.approx(4.0)
    assert values["setup_s"][0] == pytest.approx(0.5)
    assert values["cold_start_p50_ms"][0] == pytest.approx(100.0)
    assert values["throughput_ops_s"][0] == pytest.approx(1.0)
    raw = rec.end_to_end(50.0, factor=lambda t: 1.0)[0]
    assert raw["setup_s"][0] == pytest.approx(0.75)
    # Raw cycle rates are 1, 0.5 and 1 op/s; their median is 1.
    assert raw["throughput_ops_s"][0] == pytest.approx(1.0)


def test_calibration_time_is_left_out_of_samples():
    rec = Recorder()
    mark = rec.stamp()
    rec.op(NullTracer(), 0, lambda: 1, 1)
    rec.since(mark, rec.cold)
    after = time.perf_counter()
    assert len(rec.calib) == 1 and rec.aside > 0
    assert rec.cold[0][1] <= after - mark[0] - rec.aside


def test_run_takes_a_fixed_number_of_setups_and_drops_the_warm_up():
    from workloads import Counts, _deadline_cycles
    rec, calls = Recorder(auto_calibrate=False), []

    def cycle(k):
        rec.op(NullTracer(), k, lambda: time.sleep(0.01), None)

    cycles = _deadline_cycles(0.05, cycle, rec, Counts(), NullTracer(),
                              setup=lambda: calls.append(1), samples=8)
    assert len(calls) == 8
    assert len(rec.cycles) == len(rec.latencies) == cycles
    assert rec.attempted == cycles + 1


# -- BENCHMARK.json against the catalogue -----------------------------------------


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        cat = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["run_seconds"] == cat["run_seconds"]
    assert [w["name"] for w in bench["workloads"]] == \
        [w["name"] for w in cat["workloads"]]
    assert [w["why"] for w in bench["workloads"]] == \
        [w["why"] for w in cat["workloads"]]
    for key in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == \
            [(m["name"], m["unit"], m["better"]) for m in cat[key]]
    for w in cat["workloads"]:
        # The fixed tail percentile still has ten samples beyond it when
        # the host runs at half the speed it was chosen at.
        half = list(range(w["calm_ops_per_run"] // 2))
        assert tail(half)[0] == w["tail_percentile"], w["name"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
