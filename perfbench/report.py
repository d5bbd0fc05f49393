"""Per-layer metrics of a traced run, from its spans and counts.

``metrics.json`` beside this file is the catalogue: every metric's unit,
direction, layer, the end-to-end metric it should move and the workload
it should move it on, where its number comes from, and whether it
repeats exactly for a fixed seed.
"""

from __future__ import annotations

import json
import os

from spans import layer_split, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layers whose mean self time per op is reported as ``<layer>.self_ms``.
SELF_MS_LAYERS = ("frontend", "interp", "baseline", "compiler", "pipeline",
                  "lms", "code", "delite", "jit", "codecache")


def catalogue():
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as f:
        return json.load(f)


def _outermost(spans, name):
    """Spans called ``name`` that are not nested in another of the same
    name (the sharded cache delegates to a per-shard cache)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == name:
            continue
        out.append(s)
    return out


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(spans, summary, throughput_untraced, throughput_traced):
    """``({metric: value}, {metric: reason it is absent})``.

    ``summary`` is a workload's counts summary (see
    :meth:`workloads.Counts.summary`). A metric whose source never fired
    in this workload reads 0 and is listed as absent with the reason.
    """
    values, absent = {}, {}
    n_ops = sum(1 for s in spans if s["name"] == "op")
    split = layer_split(spans)
    selfs = self_times(spans)
    for layer in SELF_MS_LAYERS:
        values["%s.self_ms" % layer] = (split.get(layer, 0.0) / n_ops * 1e3
                                        if n_ops else 0.0)

    front = [s for s in spans if s["name"] == "frontend"]
    front_s = sum(s["end"] - s["start"] for s in front)
    values["frontend.kb_per_s"] = _ratio(
        sum(s["size"] for s in front) / 1024.0, front_s)

    for metric, name in (("codecache.load_ms", "codecache.load"),
                         ("codecache.store_ms", "codecache.store")):
        calls = _outermost(spans, name)
        values[metric] = _ratio(
            sum(s["end"] - s["start"] for s in calls) * 1e3, len(calls))
    coord = [s for s in spans if s["name"] == "server"]
    values["server.coordinate_wait_ms"] = _ratio(
        sum(selfs[s["id"]] for s in coord) * 1e3, len(coord))

    c = summary["per_cycle"]
    ops = summary["ops_per_cycle"]
    units = summary["units_per_cycle"]
    get = c.get
    values.update({
        "interp.invocations": get("interp_invocations", 0) / ops,
        "baseline.compiles": get("baseline_compiles", 0),
        "compiler.inlines": get("inlines", 0),
        "compiler.guards": get("guards", 0),
        "pipeline.stmts_out": get("stmts_out", 0),
        "tiers.promotions": get("promotions", 0),
        "tiers.osr_ups": get("osr_ups", 0),
        "tiers.tier2_compiles_per_unit": get("tier2_compiles", 0) / units,
        "lms.code_kb": get("code_bytes", 0) / 1024.0,
        "delite.ops": get("delite_ops", 0),
        "delite.fused_ratio": _ratio(get("delite_fused", 0),
                                     get("delite_ops", 0)),
        "delite.parsafe_fallbacks": get("parsafe_fallbacks", 0),
        "jit.unit_cache_hit_ratio": _ratio(
            get("unit_cache_hits", 0),
            get("unit_cache_hits", 0) + get("unit_cache_misses", 0)),
        "jit.compiles_per_op": get("compiles", 0) / ops,
        "codecache.hit_ratio": _ratio(
            get("cc_hits", 0), get("cc_hits", 0) + get("cc_misses", 0)),
        "codecache.kb_written": get("cc_bytes", 0) / 1024.0,
        "codecache.errors": get("cc_errors", 0),
        "server.compiles_per_shape": (get("compiles", 0) / units
                                      if "cc_hits" in c else None),
        "server.shed_rejected": get("shed_rejected", 0),
        "trace.overhead_pct": _ratio(
            (throughput_untraced - throughput_traced) * 100.0,
            throughput_untraced),
    })
    for metric, value in list(values.items()):
        if value is None:
            values[metric] = 0.0
            absent[metric] = "its source never fired in this workload"
    return values, absent


def self_split(spans):
    """Share of in-op self time per layer, largest first."""
    split = layer_split(spans)
    total = sum(split.values()) or 1.0
    return sorted(((layer, t / total) for layer, t in split.items()),
                  key=lambda kv: -kv[1])

