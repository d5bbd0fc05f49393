"""The four workloads, each driven through the public API only.

Every workload function has the signature ``fn(seed, seconds, tracer,
workdir)`` and returns ``(recorder, counts)``: the op samples (see
:class:`measure.Recorder`) and the per-layer counts read from the
system's own telemetry (``stats()``, ``CompileReport``, the Delite
runtime and the compile server). Measurement runs whole *cycles* (one
pass over a workload's fixed op sequence) until ``seconds`` have passed,
so every run measures the same op mix; counts are reported per cycle.

Reference outputs never come from the compiler under test: they are
computed by a plain MiniJVM interpreter with no JIT attached (there
``Lancet.compile`` returns its closure unchanged and the OptiML library
runs as guest loops), or by the host references for ``analytics``.
"""

from __future__ import annotations

import collections
import gc
import os
import random
import shutil
import threading
import time

import gen
from measure import Recorder, calibration_kernel, close_enough


def nproc():
    return len(os.sched_getaffinity(0))


def reference_vm(modules):
    """A JIT-less interpreter with ``[(source, module)]`` loaded."""
    from repro.frontend.compiler import compile_source
    from repro.interp.interpreter import Interpreter
    vm = Interpreter()
    for source, module in modules:
        vm.load_classes(compile_source(source, module=module))
    return vm


class Counts:
    """Per-layer counts summed over the VMs of one run."""

    def __init__(self):
        self.c = collections.Counter()
        self._lock = threading.Lock()

    def add(self, **kw):
        with self._lock:
            self.c.update(kw)

    def harvest(self, jit):
        self.add(**vm_counts(jit))

    def summary(self, cycles, ops_per_cycle, units_per_cycle, whole=()):
        """Counts per cycle, plus the run's shape. Keys in ``whole`` are
        totals of a one-off unit of work and are not divided."""
        per_cycle = {k: (v if k in whole else v / cycles)
                     for k, v in self.c.items()}
        return {"cycles": cycles, "ops_per_cycle": ops_per_cycle,
                "units_per_cycle": units_per_cycle, "per_cycle": per_cycle}


def vm_counts(jit):
    """One VM's counts from its telemetry, plus post-pipeline statements
    and generated-code size of the staged units it compiled itself (not
    baseline units, not units rehydrated from a code cache)."""
    m = jit.telemetry.metrics
    base = m.timing("compile.baseline.total")
    counts = {
        "compiles": m.get("compiles"),
        "tier2_compiles": m.get("compiles.tier2"),
        "baseline_compiles": base["count"] if base else 0,
        "inlines": m.get("inlines"),
        "guards": m.get("guards_installed"),
        "interp_invocations": m.get("interp.invocations"),
        "promotions": m.get("tier.promotions"),
        "osr_ups": m.get("tier.osr_up"),
        "unit_cache_hits": m.get("cache.unit_cache.hits"),
        "unit_cache_misses": m.get("cache.unit_cache.misses"),
        "delite_ops": jit.delite.ops_run,
        "delite_fused": jit.delite.fused_ops_run,
        "parsafe_fallbacks": jit.delite.parsafe_fallbacks,
    }
    stmts = code = 0
    for __, compiled in jit.compile_log:
        report = getattr(compiled, "report", None)
        if (report is None or "codecache_load" in report.phases
                or getattr(compiled, "kind", None) == "baseline"):
            continue
        stmts += report.stmts
        code += len(compiled.source or "")
    counts.update(stmts_out=stmts, code_bytes=code)
    return counts


def _deadline_cycles(seconds, cycle, rec, counts, tracer, setup=None,
                     samples=0, warm=True):
    """Run ``cycle(k)`` for k = 0, 1, ... until ``seconds`` have passed
    (always at least one whole cycle); returns the cycle count. Each
    cycle's time, calibration left out, goes to ``rec.cycles``.

    With ``warm``, an untimed ``cycle(-1)`` runs first and its samples,
    counts and spans are dropped (its outputs are still checked): the
    process's one-time costs, such as imports and the first run of each
    of the program's code paths, belong to no op.

    ``setup()``, when given, takes one more set-up sample; it runs
    exactly ``samples`` times, at the first cycle boundary after each of
    ``samples`` evenly spaced instants of the run (any still due run
    after the last cycle). Spreading the samples over the whole run
    keeps a short burst of load on a shared host from setting the
    median, and a fixed count keeps what the set-ups leave in memory the
    same on a slow host and a fast one. Their time is left out of the
    measured cycles."""
    if warm:
        cycle(-1)
        rec.forget()
        counts.c.clear()
        if tracer.enabled:
            tracer.spans.clear()
    start = time.perf_counter()
    deadline = start + seconds
    taken = 0
    k = 0
    while True:
        mark, done = rec.stamp(), len(rec.latencies)
        cycle(k)
        rec.since(mark, rec.cycles)
        rec.cycle_ops.append(len(rec.latencies) - done)
        k += 1
        now = time.perf_counter()
        if now >= deadline:
            break
        while (taken < samples and now - start
               >= seconds * (taken + 1) / (samples + 1)):
            setup()
            taken += 1
    while taken < samples:
        setup()
        taken += 1
    return k


# =============================================================================
# compile: cold explicit compilation
# =============================================================================

# Guest glue, appended to an app's source, that builds its inputs.

_STABLETREE_GLUE = """
def build(keys) {
  var root = null;
  var i = 0;
  while (i < len(keys)) { root = insert(root, keys[i], keys[i] * 3); i = i + 1; }
  return root;
}
"""

_REACTIVE_GLUE = """
def build(a, b, c) {
  var s = new Sum(new Source(a), new Source(b));
  return new Max(new Scale(s, 2.0), new Source(c));
}
"""

_CALCJIT_GLUE = """
def calc(x, z) {
  var acc = 0;
  var i = 0;
  while (i < x) { acc = acc + z * i + 1; i = i + 1; }
  return acc;
}
def bench(x, z) {
  var jitted = new CalcJIT(fun(a, b) => calc(a, b));
  return jitted.call(x, z);
}
"""


def compile_apps(seed):
    """The paper apps' compile entry points as compile-workload ops.

    Each spec: ``modules`` to load (the OptiML library is loaded with
    its Delite macros on the JIT VM), ``stable`` fields to mark, and
    ``entry``: a function ``(vm) -> value``. ``kind`` is
    ``"value"`` when the entry returns the result, or ``"closure"`` when
    it returns a compiled function (a plain closure on the reference VM)
    that is then called once with ``call_args``.
    """
    from repro.apps import app_source
    from repro.optiml import optiml_source
    rng = random.Random("compile-apps-%d" % seed)
    lines = gen.csv_lines(seed, 20)
    keys = gen.csv_keys()
    px, py = gen.kmeans_points(seed, 120, 3)
    cols, y = gen.logreg_columns(seed, 120, 4)
    names = gen.names(seed, 60)
    tree_keys = rng.sample(range(1, 200), 15)
    probe = rng.choice(tree_keys)
    source_value = float(rng.randint(1, 9))
    optiml = (optiml_source(), "Optiml")

    def call(module, fn, *args):
        return lambda vm: vm.call(module, fn, list(args))

    return [
        {"name": "csv.flagQuery", "modules": [(app_source("csv"), "CsvApp")],
         "entry": call("CsvApp", "flagQuery", lines, keys), "kind": "value"},
        {"name": "kmeans.makeCompiled",
         "modules": [optiml, (app_source("kmeans"), "Kmeans")],
         "entry": call("Kmeans", "makeCompiled", px, py, 3, 2),
         "kind": "closure", "call_args": [0]},
        {"name": "logreg.makeCompiled",
         "modules": [optiml, (app_source("logreg"), "Logreg")],
         "entry": call("Logreg", "makeCompiled", cols, y, 2, 0.05),
         "kind": "closure", "call_args": [0]},
        {"name": "namescore.makeCompiled",
         "modules": [optiml, (app_source("namescore"), "Namescore")],
         "entry": call("Namescore", "makeCompiled", names),
         "kind": "closure", "call_args": [0]},
        {"name": "safeint.makeProduct",
         "modules": [(app_source("safeint"), "Safeint")],
         "entry": call("Safeint", "makeProduct"),
         "kind": "closure", "call_args": [rng.randint(8, 12)]},
        {"name": "stabletree.makeLookup",
         "modules": [(app_source("stabletree") + _STABLETREE_GLUE,
                      "Stabletree")],
         "stable": [("Node", f) for f in ("key", "value", "left", "right")],
         "entry": lambda vm: vm.call(
             "Stabletree", "makeLookup",
             [vm.call("Stabletree", "build", [tree_keys])]),
         "kind": "closure", "call_args": [probe]},
        {"name": "reactive.compileNetwork",
         "modules": [(app_source("reactive") + _REACTIVE_GLUE,
                      "Reactive")],
         "stable": [("Sum", "left"), ("Sum", "right"), ("Scale", "input"),
                    ("Scale", "factor"), ("Max", "left"), ("Max", "right")],
         "entry": lambda vm: vm.call(
             "Reactive", "compileNetwork",
             [vm.call("Reactive", "build", [source_value, 2.5, 20.0])]),
         "kind": "closure", "call_args": [0]},
        {"name": "std.CalcJIT",
         "modules": [(app_source("std") + _CALCJIT_GLUE, "Std")],
         "entry": call("Std", "bench", rng.randint(3, 9), rng.randint(1, 50)),
         "kind": "value"},
    ]


def _app_reference(spec):
    vm = reference_vm(spec["modules"])
    value = spec["entry"](vm)
    if spec["kind"] == "closure":
        value = vm.call_closure(value, list(spec["call_args"]))
    return value


def _app_op(spec, options):
    from repro import Lancet
    from repro.optiml import OPTIML_MODULE
    from repro.optiml.macros import install_optiml_macros
    jit = Lancet(options=options)
    for source, module in spec["modules"]:
        jit.load(source, module=module)
        if module == OPTIML_MODULE:
            install_optiml_macros(jit)
    for cls, field in spec.get("stable", ()):
        jit.mark_stable(cls, field)
    value = spec["entry"](jit.vm)
    if spec["kind"] == "closure":
        value = value(*spec["call_args"])
    return jit, value


def _gen_op(item, options):
    from repro import Lancet
    jit = Lancet(options=options)
    jit.load(item["source"], module=item["module"])
    fn = jit.compile_function(item["module"], "run")
    return jit, fn(item["arg"])


#: Set-up samples spread over a compile run.
COMPILE_SETUP_SAMPLES = 12


def compile_workload(seed, seconds, tracer, workdir):
    from repro import CompileOptions, Lancet
    options = CompileOptions(unit_cache=False)
    apps = compile_apps(seed)
    corpus = gen.compile_corpus(seed)
    ops = ([("app", spec) for spec in apps]
           + [("gen", item) for item in corpus])
    random.Random("compile-order-%d" % seed).shuffle(ops)
    expected = []
    for kind, item in ops:
        if kind == "app":
            expected.append(_app_reference(item))
        else:
            vm = reference_vm([(item["source"], item["module"])])
            expected.append(vm.call(item["module"], "run", [item["arg"]]))

    rec, counts = Recorder(), Counts()

    def setup():
        # What a user pays before the first op: a VM and the loading of
        # the generated corpus.
        mark = rec.stamp()
        jit = Lancet(options=options)
        for item in corpus:
            rec.tick()
            jit.load(item["source"], module=item["module"])
        rec.since(mark, rec.setup)

    def cycle(k):
        for i, (kind, item) in enumerate(ops):
            run = _app_op if kind == "app" else _gen_op
            made = []

            def op():
                jit, value = run(item, options)
                made.append(jit)
                return value

            # Each op starts from a fresh VM, so it is also a cold start.
            if rec.op(tracer, (k, item["name"]), op, expected[i],
                      close_enough):
                rec.cold.append(rec.latencies[-1])
            if made and tracer.enabled:
                counts.harvest(made[0])

    cycles = _deadline_cycles(seconds, cycle, rec, counts, tracer, setup,
                              samples=COMPILE_SETUP_SAMPLES)
    return rec, counts.summary(cycles, len(ops), len(ops))


# =============================================================================
# warmup: tiered execution from cold
# =============================================================================


def warmup_workload(seed, seconds, tracer, workdir):
    from repro import Lancet
    corpus = gen.warmup_corpus(seed)
    schedule = gen.warmup_schedule(seed, corpus)
    units = corpus["units"]
    vm = reference_vm([(corpus["source"], "Warm")])
    ref = {}
    for unit, n in schedule:
        if (unit, n) not in ref:
            ref[(unit, n)] = vm.call("Warm", "k%d" % unit, [n])
    del vm

    rec, counts = Recorder(), Counts()

    def cycle(k):
        mark = rec.stamp()
        jit = Lancet()
        jit.load(corpus["source"], module="Warm")
        fns = []
        for u in range(units):
            rec.tick()
            fns.append(jit.compile_tiered("Warm", "k%d" % u))
        rec.since(mark, rec.setup)
        for i, (unit, n) in enumerate(schedule):
            fn = fns[unit]
            ok = rec.op(tracer, (k, i), lambda: fn(n), ref[(unit, n)])
            if i == 0 and ok:
                rec.since(mark, rec.cold)
        if tracer.enabled:
            counts.harvest(jit)

    cycles = _deadline_cycles(seconds, cycle, rec, counts, tracer)
    return rec, counts.summary(cycles, len(schedule), units)


# =============================================================================
# analytics: steady state of the paper's compiled apps
# =============================================================================

_CSV_GLUE = """
def makeRunner(lines, keys, acc) {
  return compileCSV(lines, fun(rec) {
    Lancet.unroll(keys);
    var t = 0;
    var i = 0;
    while (i < len(keys)) { t = t + len(rec.apply(keys[i])); i = i + 1; }
    acc[1] = acc[1] + t;
    if (rec.apply("Flag") == "yes") { acc[0] = acc[0] + 1; }
  });
}
"""

#: Set-up samples spread over an analytics run, beside the measured VM's.
ANALYTICS_SETUP_SAMPLES = 8

ANALYTICS = {"csv_rows": 16000, "kmeans_n": 80000, "kmeans_k": 4,
             "kmeans_iters": 5, "logreg_n": 160000, "logreg_d": 8,
             "logreg_iters": 5, "logreg_alpha": 0.05, "names": 20000}


def analytics_setup(data, cores):
    """VM construction, loading, data registration and the precompile
    of the four apps. Returns ``(jit, {app: zero-arg op})``."""
    from repro import Lancet
    from repro.apps import app_source
    from repro.optiml import load_optiml
    a = ANALYTICS
    jit = Lancet()
    load_optiml(jit)
    jit.load(app_source("csv") + _CSV_GLUE, module="CsvApp")
    jit.load(app_source("kmeans"), module="Kmeans")
    jit.load(app_source("logreg"), module="Logreg")
    jit.load(app_source("namescore"), module="Namescore")
    jit.delite.configure("smp", cores=cores)
    for arr in [data["px"], data["py"], data["y"]] + data["cols"]:
        jit.delite.register_data(arr)
    acc = [0, 0]
    csv_runner = jit.vm.call("CsvApp", "makeRunner",
                             [data["lines"], data["keys"], acc])
    km = jit.vm.call("Kmeans", "makeCompiled",
                     [data["px"], data["py"], a["kmeans_k"],
                      a["kmeans_iters"]])
    lr = jit.vm.call("Logreg", "makeCompiled",
                     [data["cols"], data["y"], a["logreg_iters"],
                      a["logreg_alpha"]])
    ns = jit.vm.call("Namescore", "makeCompiled", [data["names"]])

    def csv_op():
        acc[0] = acc[1] = 0
        csv_runner(1)
        return list(acc)

    return jit, {"csv": csv_op, "kmeans": lambda: km(0),
                 "logreg": lambda: lr(0), "namescore": lambda: ns(0)}


def analytics_workload(seed, seconds, tracer, workdir):
    from repro.apps.csv_baselines import cpp_baseline
    from repro.optiml.reference import (kmeans_cpp, logreg_cpp,
                                        namescore_python)
    a = ANALYTICS
    px, py = gen.kmeans_points(seed, a["kmeans_n"], a["kmeans_k"])
    cols, y = gen.logreg_columns(seed, a["logreg_n"], a["logreg_d"])
    data = {"lines": gen.csv_lines(seed, a["csv_rows"]),
            "keys": gen.csv_keys(), "px": px, "py": py, "cols": cols,
            "y": y, "names": gen.names(seed, a["names"])}
    ref = {
        "csv": cpp_baseline(data["lines"], data["keys"]),
        "kmeans": [list(v) for v in kmeans_cpp(px, py, a["kmeans_k"],
                                               a["kmeans_iters"])],
        "logreg": list(logreg_cpp(cols, y, a["logreg_iters"],
                                  a["logreg_alpha"])),
        "namescore": namescore_python(data["names"]),
    }
    order = sorted(ref)
    random.Random("analytics-order-%d" % seed).shuffle(order)

    rec, counts = Recorder(), Counts()
    cores = nproc()

    def setup():
        """Set-up, then the first checked result of every app, in a fixed
        order: the cold start ends with the last of them, so it does not
        depend on which app the seed puts first. The VM is then warm."""
        mark = rec.stamp()
        jit, ops = analytics_setup(data, cores)
        rec.since(mark, rec.setup)
        firsts = {app: ops[app]() for app in sorted(ops)}
        rec.since(mark, rec.cold)
        for app, value in firsts.items():
            if not close_enough(value, ref[app], rel=1e-6):
                rec.fail("cold start: wrong %s result" % app, attempt=True)
        return jit, ops

    # The first VM is the one measured; later set-ups are samples only.
    jit, ops = setup()
    # Its compile artifacts are one unit set that every cycle runs;
    # everything else counts from here on.
    before = vm_counts(jit)

    def cycle(k):
        for i, app in enumerate(order):
            rec.op(tracer, (k, i), ops[app], ref[app],
                   lambda x, e: close_enough(x, e, rel=1e-6))

    def sample():
        setup()
        # Free the sample VM now (VMs hold reference cycles), so peak
        # memory stays that of two VMs whatever the collector's timing.
        gc.collect()

    # The set-up above already ran every op once.
    cycles = _deadline_cycles(seconds, cycle, rec, counts, tracer, sample,
                              samples=ANALYTICS_SETUP_SAMPLES, warm=False)
    whole = ("inlines", "guards", "stmts_out", "code_bytes")
    if tracer.enabled:
        after = vm_counts(jit)
        counts.add(**{k: before[k] if k in whole else after[k] - before[k]
                      for k in after})
    return rec, counts.summary(cycles, len(order), len(order), whole=whole)


# =============================================================================
# fleet: multi-tenant serving with VM churn
# =============================================================================


#: Sessions each fleet client serves per cycle.
FLEET_SESSIONS_PER_CLIENT = 16

#: Calibration kernel runs per client at each session start: enough
#: for the threads to hand the interpreter lock to each other several
#: times, as they do during a session.
FLEET_KERNEL_RUNS = 4

#: Seconds a fleet client waits for the others at a session start
#: before the run counts a failure.
FLEET_LOCKSTEP_TIMEOUT = 120


def fleet_workload(seed, seconds, tracer, workdir):
    from repro import Lancet
    from repro.server import CompileServer
    clients = min(2, nproc())
    corpus = gen.fleet_corpus(seed)
    stream = gen.fleet_stream(seed, corpus,
                              sessions=clients * FLEET_SESSIONS_PER_CLIENT)
    vm = reference_vm([(corpus["source"], "Fleet")])
    ref = {}
    for session in stream:
        for shape, n in session:
            if (shape, n) not in ref:
                ref[(shape, n)] = vm.call("Fleet", "s%d" % shape, [n])
    del vm
    distinct = len({shape for session in stream for shape, __ in session})

    # Clients start their sessions in lockstep. Between the two gates
    # every client runs the calibration kernel at once, so the host-speed
    # sample meets the same thread contention as the sessions do.
    rec, counts = Recorder(auto_calibrate=False), Counts()
    errors = []

    def client(k, c, server, gates):
        try:
            for s, session in enumerate(stream[c::clients]):
                gates[0].wait(timeout=FLEET_LOCKSTEP_TIMEOUT)
                for __ in range(FLEET_KERNEL_RUNS):
                    calibration_kernel()
                gates[1].wait(timeout=FLEET_LOCKSTEP_TIMEOUT)
                mark = rec.stamp()
                jit = Lancet()
                jit.load(corpus["source"], module="Fleet")
                jit.attach_compile_server(server)
                rec.since(mark, rec.setup)
                for i, (shape, n) in enumerate(session):
                    def op(shape=shape, n=n):
                        fn = jit.compile_function("Fleet", "s%d" % shape)
                        return fn(n)
                    ok = rec.op(tracer, (k, c, s, i), op, ref[(shape, n)])
                    if i == 0 and ok:
                        rec.since(mark, rec.cold)
                if tracer.enabled:
                    counts.harvest(jit)
                jit.close()
        except Exception as exc:        # surface it; never hang the join
            for gate in gates:
                gate.abort()
            errors.append("client %d: %s: %s" % (c, type(exc).__name__,
                                                 exc))

    def cycle(k):
        store = os.path.join(workdir, "fleet-%d" % k)
        server = CompileServer(cache_dir=store, workers=0)
        opened = []
        gates = (threading.Barrier(
                     clients, action=lambda: opened.append(rec.open_sample())),
                 threading.Barrier(
                     clients,
                     action=lambda: rec.close_sample(
                         opened.pop(), clients * FLEET_KERNEL_RUNS)))
        threads = [threading.Thread(target=client,
                                    args=(k, c, server, gates))
                   for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
        server.close()
        m = server.telemetry.metrics
        counts.add(cc_hits=m.get("codecache.hits"),
                   cc_misses=m.get("codecache.misses"),
                   cc_errors=m.get("codecache.errors")
                   + m.get("codecache.quarantines"),
                   cc_bytes=stats["store"]["size_bytes"],
                   shed_rejected=stats["shed"] + stats["rejected"])
        shutil.rmtree(store, ignore_errors=True)

    cycles = _deadline_cycles(seconds, cycle, rec, counts, tracer)
    for message in errors:
        rec.fail(message, attempt=True)
    return rec, counts.summary(cycles, sum(map(len, stream)), distinct)


WORKLOADS = {
    "compile": compile_workload,
    "warmup": warmup_workload,
    "analytics": analytics_workload,
    "fleet": fleet_workload,
}
