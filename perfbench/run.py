"""The repository's benchmark: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile``, ``warmup``, ``analytics``, ``fleet`` (see
``metrics.json``). With ``--trace 0`` the run measures the end-to-end
metrics with no tracing installed. With ``--trace 1`` it first runs half
the time untraced, then half with the layer tracer installed, and
reports the per-layer metrics plus the tracing overhead; the spans are
written to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
runs the program from ``src/`` of the checkout and exits non-zero,
without a result, when that is missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "warmup", "analytics", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("perfbench: no program under %s (expected src/repro)" % src)
    # Inputs come from the seed alone: drop settings a caller's
    # environment could slip in (validation, persistence, tiers, ...).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, src)
    import repro  # noqa: F401


def main(argv=None):
    args = _parse(argv)
    _import_program()
    from measure import MIN_BEYOND
    from report import catalogue, layer_metrics, self_split
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    run = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cat = catalogue()
    tail_p = next(w["tail_percentile"] for w in cat["workloads"]
                  if w["name"] == args.workload)
    lines = []
    try:
        if not args.trace:
            rec, summary = run(args.seed, args.seconds, NullTracer(), workdir)
            values, extra = rec.end_to_end(tail_p)
            raw = rec.end_to_end(tail_p, factor=lambda t: 1.0)[0]
            lines.append("wall-clock, unscaled: " + ", ".join(
                "%s %.6g" % (k, v) for k, (v, __) in raw.items()))
            if extra["tail_beyond"] < MIN_BEYOND:
                lines.append("warning: only %d samples beyond p%s"
                             % (extra["tail_beyond"], tail_p))
            wanted = cat["end_to_end"]
            recs = [rec]
        else:
            half = args.seconds / 2.0
            plain, __ = run(args.seed, half, NullTracer(), workdir)
            tracer = Tracer()
            missing = tracer.install()
            try:
                rec, summary = run(args.seed, half, tracer, workdir)
            finally:
                tracer.uninstall()
            spans = tracer.dump()
            base = plain.end_to_end(tail_p)[0]["throughput_ops_s"][0]
            traced = rec.end_to_end(tail_p)[0]["throughput_ops_s"][0]
            layer, absent = layer_metrics(spans, summary, base, traced)
            for name, target, reason in missing:
                for m in cat["per_layer"]:
                    if m["layer"] == name.split(".")[0]:
                        absent[m["name"]] = "cannot wrap %s: %s" % (target,
                                                                    reason)
            values = {m["name"]: (layer[m["name"]], m["unit"])
                      for m in cat["per_layer"]}
            split = self_split(spans)
            extra = {"self_time_split": {k: round(v, 4) for k, v in split},
                     "absent": absent, "cycles": summary["cycles"],
                     "untraced_throughput_ops_s": base,
                     "traced_throughput_ops_s": traced}
            wanted = cat["per_layer"]
            recs = [plain, rec]
            _write_trace(args, spans, values, extra)
            lines.append("self-time split: " + ", ".join(
                "%s %.1f%%" % (k, v * 100) for k, v in split[:6]))
            for metric, reason in sorted(absent.items()):
                lines.append("absent: %s (%s)" % (metric, reason))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    extra["error_rate"] = failed / attempted if attempted else 0.0
    for r in recs:
        for message in r.failures:
            lines.append("FAILED: %s" % message)
    for key, value in sorted(extra.items()):
        if not isinstance(value, dict):
            lines.append("%s: %s" % (key, value))
    for m in wanted:
        value, unit = values[m["name"]]
        lines.append("%-32s %14.6g %s" % (m["name"], value, unit))
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": values[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _write_trace(args, spans, values, extra):
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace.json.gz" % (args.workload,
                                                          args.seed))
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": {k: v[0] for k, v in values.items()},
                   **extra, "spans": spans}, f)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
