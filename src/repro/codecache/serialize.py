"""Entry (de)serialization: CompiledFunction <-> JSON payload.

Only *self-contained* units persist. Generated source may reference
process-private state through three channels, each checked at store
time; a unit that leans on process-private state through any of them
is reported unpersistable (a ``codecache.skip`` event, never an error):

* the **statics table** (``K[i]``) — live heap objects referenced by
  identity. Entries that are *linked classes* (``RtClass``: a closure's
  class, the class of a ``new``) persist by class name and are resolved
  against the loading VM's linker, so the code allocates instances of
  *that* VM's class; a name the VM lacks is a link miss. Any other heap
  object (a specialized receiver, an array) is unpersistable;
* **deopt metadata** slots that capture heap state (``static`` /
  ``virtual`` slot templates, non-primitive constants) — ``live`` slots
  and primitive constants serialize fine, so guard-carrying units
  usually persist;
* **native/kernel bindings** that cannot be re-resolved by name
  (Delite kernel descriptors are bound by ``id()``).

``stable``-field dependencies (``@stable`` folding) also block
persistence: the folded value is a snapshot of heap state with no
runtime guard. ``stable(...)`` *macro* guards are different — they
re-check at runtime, so they persist, and a failing guard invalidates
the dependent persistent entry (see ``CompiledFunction.invalidate``).

Staged units carry their source *and* its marshaled module code object
tagged with the host bytecode magic: a loader on the same CPython
``exec``s the code object without re-running ``compile()``, any other
CPython falls back to compiling the source, so mixed-version fleets
still share entries.
"""

from __future__ import annotations

import base64
import importlib.util
import marshal
import types

from repro.compiler.deopt import DeoptMeta, FrameTemplate
from repro.runtime.objects import RtClass

_PRIMITIVES = (bool, int, float, str)

#: Host bytecode magic: marshaled code objects only load on a CPython
#: with the same magic.
_MAGIC = importlib.util.MAGIC_NUMBER.hex()


class Unpersistable(Exception):
    """This unit's generated code depends on process-private state."""


# -- metas -> JSON -----------------------------------------------------------


def _template_to_json(t):
    kind = t[0]
    if kind == "live":
        return ["live", t[1]]
    if kind == "const":
        v = t[1]
        if v is None or type(v) in _PRIMITIVES:
            return ["const", v]
        raise Unpersistable("deopt const of type %s" % type(v).__name__)
    # "static" and "virtual" slots capture heap objects.
    raise Unpersistable("deopt slot kind %r" % kind)


def _meta_to_json(meta):
    frames = []
    for f in meta.frames:
        if f.method.class_name is None:
            raise Unpersistable("deopt frame method has no class")
        frames.append({
            "cls": f.method.class_name,
            "method": f.method.name,
            "bci": f.bci,
            "locals": [_template_to_json(t) for t in f.locals_t],
            "stack": [_template_to_json(t) for t in f.stack_t],
        })
    return {"frames": frames, "reason": meta.reason, "kind": meta.kind}


def _meta_from_json(d, linker):
    frames = []
    for fd in d["frames"]:
        rt = linker.classes.get(fd["cls"])
        method = rt.lookup_method(fd["method"]) if rt is not None else None
        if method is None:
            return None
        frames.append(FrameTemplate(
            method, fd["bci"],
            [tuple(t) for t in fd["locals"]],
            [tuple(t) for t in fd["stack"]]))
    return DeoptMeta(frames, reason=d["reason"], kind=d["kind"])


# -- entry building ----------------------------------------------------------


def _baseline_payload(compiled, fingerprint, options, backend):
    """Baseline units persist their marshaled CPython code object — no
    source, no metas, no statics by construction (the runtime-helper
    namespace is rebuilt by name at load). The host bytecode magic is
    stored so a different CPython reads a clean miss."""
    if compiled.method.class_name is None:
        raise Unpersistable("baseline unit's method has no class")
    return {
        "unit": compiled.name,
        "fingerprint": fingerprint,
        "tier": getattr(compiled, "tier", options.tier),
        "backend": backend,
        "kind": "baseline",
        "cls": compiled.method.class_name,
        "method": compiled.method.name,
        "magic": _MAGIC,
        "code": _dump_code(compiled.code_object),
        "warnings": [str(w) for w in compiled.warnings],
    }


def _dump_code(code):
    return base64.b64encode(marshal.dumps(code)).decode("ascii")


def _load_code(payload):
    """Unmarshal a payload's code object; corrupt bytes raise, which
    the store quarantines."""
    code = marshal.loads(base64.b64decode(payload["code"]))
    if not isinstance(code, types.CodeType):
        raise Unpersistable("%s payload decoded to %s"
                            % (payload.get("kind", "unit"),
                               type(code).__name__))
    return code


def _baseline_rehydrate(payload, jit, recompile):
    """Rebuild a BaselineFunction from its marshaled code object.
    Returns ``None`` on a link/version miss; corrupt marshal bytes
    raise, which the store quarantines."""
    from repro.baseline import (BaselineFunction, baseline_namespace,
                                baseline_supported)
    from repro.observability import CompileReport

    if not baseline_supported() or payload.get("magic") != _MAGIC:
        return None
    rt = jit.vm.linker.classes.get(payload["cls"])
    method = rt.lookup_method(payload["method"]) if rt is not None else None
    if method is None:
        return None
    code = _load_code(payload)
    fn = types.FunctionType(code, baseline_namespace(jit, method),
                            payload["unit"])
    compiled = BaselineFunction(jit, fn, method, code,
                                recompile=recompile, name=payload["unit"],
                                warnings=payload["warnings"])
    compiled.tier = payload["tier"]
    report = CompileReport(name=payload["unit"], tier=payload["tier"])
    report.phases["codecache_load"] = 0.0   # filled by the store
    report.warnings = len(payload["warnings"])
    compiled.report = report
    return compiled


def _statics_to_json(linker, statics):
    """The statics table as class names; raises :class:`Unpersistable`
    on any entry that is not a class linked into ``linker``."""
    names = []
    for obj in statics.objects:
        if not (isinstance(obj, RtClass)
                and linker.classes.get(obj.name) is obj):
            raise Unpersistable("statics-table entry of type %s"
                                % type(obj).__name__)
        names.append(obj.name)
    return names


def build_payload(compiled, fingerprint, options, backend="python"):
    """Serialize one CompiledFunction to a JSON-safe payload dict.

    Raises :class:`Unpersistable` when the unit depends on
    process-private state.
    """
    if getattr(compiled, "kind", None) == "baseline":
        return _baseline_payload(compiled, fingerprint, options, backend)
    result = getattr(compiled, "ir", None)
    if result is None:
        raise Unpersistable("no post-pipeline IR attached")
    statics = _statics_to_json(compiled.vm.linker, result.statics)
    if result.stable_deps:
        raise Unpersistable("@stable field dependencies")
    blockers = getattr(compiled, "persist_blockers", None) or []
    if blockers:
        raise Unpersistable(", ".join(blockers))
    natives = sorted(
        [binding, cls, name]
        for binding, (cls, name) in
        getattr(compiled, "native_refs", {}).items())
    return {
        "unit": compiled.name,
        "fingerprint": fingerprint,
        "tier": getattr(compiled, "tier", options.tier),
        "backend": backend,
        "source": compiled.source,
        "magic": _MAGIC,
        "code": _dump_code(compiled.module_code),
        "statics": statics,
        "param_names": list(result.param_names),
        "warnings": [str(w) for w in compiled.warnings],
        "metas": [_meta_to_json(m) for m in compiled.metas],
        "natives": natives,
        "stable_guards": sum(1 for m in compiled.metas
                             if m.kind == "recompile"),
    }


def rehydrate(payload, jit, recompile=None):
    """Rebuild a callable CompiledFunction from a cached payload, with
    zero staging/optimization work. Returns ``None`` when the payload no
    longer links against this VM (a class named by the statics table,
    or a method or native referenced by the deopt metadata, is gone) —
    the caller treats that as a miss.
    """
    if payload.get("kind") == "baseline":
        return _baseline_rehydrate(payload, jit, recompile)
    from repro.compiler.compiled import CompiledFunction
    from repro.lms.codegen_py import PyCodegen
    from repro.lms.staging import _Statics
    from repro.observability import CompileReport
    from repro.pipeline.backend import python_runtime_hooks

    linker = jit.vm.linker
    statics = _Statics()
    for name in payload["statics"]:
        cls = linker.classes.get(name)
        if cls is None:
            return None
        statics.objects.append(cls)     # K[i] is positional
    metas = []
    for md in payload["metas"]:
        meta = _meta_from_json(md, linker)
        if meta is None:
            return None
        metas.append(meta)
    codegen = PyCodegen(jit.vm, statics, metas)
    for binding, cls, name in payload["natives"]:
        if not codegen.bind_native_by_name(binding, cls, name):
            return None
    callv, callm, mkcont, osr = python_runtime_hooks(jit, metas)
    if payload["magic"] == _MAGIC:
        fn = codegen.exec_code(_load_code(payload), callv, callm, mkcont,
                               osr)
    else:
        # Another CPython wrote this entry: its code object is foreign
        # bytecode, but the source is portable.
        fn = codegen.exec_source(payload["source"], callv, callm, mkcont,
                                 osr, filename="<lancet-cached>")
    compiled = CompiledFunction(jit, fn, payload["source"], metas,
                                recompile=recompile, name=payload["unit"],
                                warnings=payload["warnings"])
    compiled.tier = payload["tier"]
    report = CompileReport(name=payload["unit"], tier=payload["tier"])
    report.phases["codecache_load"] = 0.0   # filled by the store
    report.warnings = len(payload["warnings"])
    compiled.report = report
    return compiled
