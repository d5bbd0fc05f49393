"""Python code generation from the staged IR.

The CFG is emitted as one Python function with a label-dispatch loop::

    def __compiled(a1, a2):
        __L = 0
        while True:
            if __L == 0:
                s1 = _add(a1, 1)
                ...

Single-predecessor blocks read their predecessor's variables directly
(function locals persist across dispatch iterations and the predecessor
dominates); merge blocks receive values through explicit parameter
variables assigned by each predecessor.

This module only *renders*: block fusion and DCE are PassManager passes
(:mod:`repro.pipeline.passes`) shared by every backend; the names are
re-exported here for standalone codegen users.
"""

from __future__ import annotations

from repro.analysis.dce import eliminate_dead  # noqa: F401  (re-export)
from repro.analysis.fuse import fuse_blocks  # noqa: F401  (re-export)
from repro.lms.ir import Branch, Deopt, Jump, OsrCompile, Return
from repro.lms.rep import ConstRep, StaticRep, Sym


def _no_delite(*args):
    raise RuntimeError("no Delite runtime attached to this VM")

_INFIX = {"add": "+", "sub": "-", "mul": "*", "eq": "==", "ne": "!=",
          "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_HELPER_BY_OP = {
    "add": "_add", "sub": "_sub", "mul": "_mul", "div": "_div",
    "mod": "_mod", "neg": "_neg", "eq": "_eq", "ne": "_ne", "lt": "_lt",
    "le": "_le", "gt": "_gt", "ge": "_ge",
    "getfield": "_getf", "putfield": "_putf",
    "aload": "_aload", "astore": "_astore", "alen": "_alen",
}


class PyCodegen:
    """Emits and ``exec``-compiles one function from a CFG."""

    def __init__(self, vm, statics, metas, fn_name="__compiled"):
        self.vm = vm
        self.statics = statics
        self.metas = metas
        self.fn_name = fn_name
        self._native_bindings = {}   # binding name -> callable
        self.native_refs = {}        # binding name -> (class, native name)
        self.persist_blockers = []   # why this source can't be persisted
        self.module_code = None      # code object compiled by generate()

    # -- value rendering -------------------------------------------------------

    def rep(self, r):
        if isinstance(r, Sym):
            return r.name
        if isinstance(r, ConstRep):
            return self.const(r.value)
        if isinstance(r, StaticRep):
            return "K[%d]" % r.index
        raise AssertionError("bad rep %r" % (r,))

    @staticmethod
    def const(v):
        if isinstance(v, float):
            if v != v:
                return "float('nan')"
            if v in (float("inf"), float("-inf")):
                return "float('%sinf')" % ("-" if v < 0 else "")
        return repr(v)

    def _bind_native(self, nat):
        name = "n_%s_%s" % (nat.class_name, nat.name)
        self._native_bindings[name] = nat.fn
        self.native_refs[name] = (nat.class_name, nat.name)
        return name

    def bind_native_by_name(self, binding, class_name, native_name):
        """Re-resolve a recorded native binding (persistent-cache reload).
        Returns False when the native no longer exists."""
        from repro.runtime.natives import lookup_native
        nat = lookup_native(class_name, native_name)
        if nat is None:
            return False
        self._native_bindings[binding] = nat.fn
        self.native_refs[binding] = (class_name, native_name)
        return True

    # -- statement rendering --------------------------------------------------------

    def stmt(self, stmt):
        op = stmt.op
        args = stmt.args
        flags = stmt.flags
        r = self.rep
        target = stmt.sym.name

        if op in ("id", "taint", "untaint"):
            # taint/untaint are analysis-only markers: identity at runtime.
            return "%s = %s" % (target, r(args[0]))
        if op == "throw":
            return "raise _GuestThrow(%s)" % r(args[0])
        if op in _INFIX and flags.get("num"):
            return "%s = %s %s %s" % (target, r(args[0]), _INFIX[op], r(args[1]))
        if op in ("not",):
            return "%s = not %s" % (target, r(args[0]))
        if op == "neg" and flags.get("num"):
            return "%s = -%s" % (target, r(args[0]))
        if op == "concat":
            return "%s = %s + %s" % (target, r(args[0]), r(args[1]))
        if op == "to_str":
            return "%s = _gstr(%s)" % (target, r(args[0]))
        if op == "truthy":
            return "%s = bool(%s)" % (target, r(args[0]))
        if op == "getfield":
            if flags.get("objfast"):
                return "%s = %s.fields[%r]" % (target, r(args[0]), args[1])
            return "%s = _getf(%s, %r)" % (target, r(args[0]), args[1])
        if op == "putfield":
            if flags.get("objfast"):
                return "%s.fields[%r] = %s; %s = None" % (
                    r(args[0]), args[1], r(args[2]), target)
            return "%s = _putf(%s, %r, %s)" % (target, r(args[0]), args[1],
                                               r(args[2]))
        if op == "putfield_stablecheck":
            return "%s = _putf(%s, %r, %s)" % (target, r(args[0]), args[1],
                                               r(args[2]))
        if op == "alen" and flags.get("arrfast"):
            return "%s = len(%s)" % (target, r(args[0]))
        if op == "aload" and (flags.get("fast") or flags.get("known_arr")):
            return "%s = %s[%s]" % (target, r(args[0]), r(args[1]))
        if op == "astore" and flags.get("fast"):
            return "%s[%s] = %s; %s = None" % (r(args[0]), r(args[1]),
                                               r(args[2]), target)
        if op in _HELPER_BY_OP:
            rendered = ", ".join(r(a) for a in args)
            return "%s = %s(%s)" % (target, _HELPER_BY_OP[op], rendered)
        if op == "instanceof":
            return ("%s = isinstance(%s, _Obj) and %s.cls.is_subclass_of(%r)"
                    % (target, r(args[0]), r(args[0]), args[1]))
        if op == "class_is":
            # Exact-class test backing trace receiver speculation (the
            # subclass-aware `instanceof` would admit overriding classes).
            return ("%s = isinstance(%s, _Obj) and %s.cls.name == %r"
                    % (target, r(args[0]), r(args[0]), args[1]))
        if op == "new":
            return "%s = _newinst(%s)" % (target, r(args[0]))
        if op == "new_array":
            return "%s = _newarr(%s)" % (target, r(args[0]))
        if op == "array_lit":
            return "%s = [%s]" % (target, ", ".join(r(a) for a in args))
        if op == "delite":
            desc = args[0]
            binding = "dop_%d" % id(desc)
            self._native_bindings[binding] = desc
            # Kernel descriptors are live host objects bound by identity;
            # the rendered source is process-private.
            self.persist_blockers.append("delite kernel binding")
            rendered = ", ".join(r(a) for a in args[1:])
            return "%s = _drun(%s, %s)" % (target, binding, rendered)
        if op == "native":
            nat = args[0]
            if nat.py_inline is not None:
                expr = nat.py_inline.format(*[r(a) for a in args[1:]])
                return "%s = %s" % (target, expr)
            binding = self._bind_native(nat)
            rendered = ", ".join(r(a) for a in args[1:])
            return "%s = %s(vm, %s)" % (target, binding,
                                        rendered) if rendered else \
                   "%s = %s(vm)" % (target, binding)
        if op == "invoke":
            name = args[0]
            rendered = ", ".join(r(a) for a in args[2:])
            return "%s = _callv(%s, %r, [%s])" % (target, r(args[1]), name,
                                                  rendered)
        if op == "invoke_method":
            rendered = ", ".join(r(a) for a in args[2:])
            return "%s = _callm(%s, %s, [%s])" % (target, r(args[0]),
                                                  r(args[1]), rendered)
        if op == "guard":
            meta_id = args[1]
            lives = ", ".join(r(a) for a in args[2:])
            return ("if not %s: raise _DeoptEx(%d, (%s))\n%s = None"
                    % (r(args[0]), meta_id, lives + ("," if lives else ""),
                       target))
        if op == "guard_not":
            meta_id = args[1]
            lives = ", ".join(r(a) for a in args[2:])
            return ("if %s: raise _DeoptEx(%d, (%s))\n%s = None"
                    % (r(args[0]), meta_id, lives + ("," if lives else ""),
                       target))
        if op == "make_cont":
            meta_id = args[0]
            lives = ", ".join(r(a) for a in args[1:])
            return "%s = _mkcont(%d, (%s))" % (target, meta_id,
                                               lives + ("," if lives else ""))
        raise AssertionError("cannot render op %r" % (op,))

    # -- terminators ----------------------------------------------------------------

    def _assigns(self, assigns):
        if not assigns:
            return []
        names = ", ".join(n for n, __ in assigns)
        vals = ", ".join(self.rep(v) for __, v in assigns)
        return ["%s = %s" % (names, vals)]

    def terminator(self, term):
        if isinstance(term, Jump):
            return self._assigns(term.phi_assigns) + \
                ["__L = %d" % term.target, "continue"]
        if isinstance(term, Branch):
            lines = ["if %s:" % self.rep(term.cond)]
            body = self._assigns(term.true_assigns) + \
                ["__L = %d" % term.true_target, "continue"]
            lines += ["    " + ln for ln in body]
            lines.append("else:")
            body = self._assigns(term.false_assigns) + \
                ["__L = %d" % term.false_target, "continue"]
            lines += ["    " + ln for ln in body]
            return lines
        if isinstance(term, Return):
            return ["return %s" % self.rep(term.value)]
        if isinstance(term, Deopt):
            lives = ", ".join(self.rep(a) for a in term.lives)
            return ["raise _DeoptEx(%d, (%s))"
                    % (term.meta_id, lives + ("," if lives else ""))]
        if isinstance(term, OsrCompile):
            lives = ", ".join(self.rep(a) for a in term.lives)
            return ["return _osr(%d, (%s))"
                    % (term.meta_id, lives + ("," if lives else ""))]
        raise AssertionError("missing terminator")

    # -- whole function ----------------------------------------------------------------

    def generate(self, blocks, entry_id, param_names, callv, callm, mkcont,
                 osr, optimize=True):
        """Render, compile, and return ``(function, source)``; the
        module code object stays on :attr:`module_code` for the
        persistent cache.

        ``optimize=False`` skips fusion/DCE — the JIT pipeline has already
        run them (plus the IR analyses) by the time it calls us.
        """
        if optimize:
            fuse_blocks(blocks, entry_id)
            eliminate_dead(blocks, entry_id)
        lines = ["def %s(%s):" % (self.fn_name, ", ".join(param_names))]
        order = sorted(blocks)
        if len(order) == 1 and blocks[entry_id].block_id == entry_id:
            # Straight-line fast path: no dispatch loop needed.
            block = blocks[entry_id]
            body = []
            for stmt in block.stmts:
                body.extend(self.stmt(stmt).split("\n"))
            term = self.terminator(block.terminator)
            if term and term[-1] == "continue":  # pragma: no cover
                raise AssertionError("jump out of a single-block function")
            body += term
            lines += ["    " + ln for ln in body] or ["    pass"]
        else:
            lines.append("    __L = %d" % entry_id)
            lines.append("    while True:")
            first = True
            for bid in order:
                block = blocks[bid]
                kw = "if" if first else "elif"
                first = False
                lines.append("        %s __L == %d:" % (kw, bid))
                body = [self.stmt(s) for s in block.stmts]
                body += self.terminator(block.terminator)
                if not body:
                    body = ["pass"]
                for chunk in body:
                    for ln in chunk.split("\n"):
                        lines.append("            " + ln)

        source = "\n".join(lines) + "\n"
        self.module_code = compile(source, "<lancet-compiled>", "exec")
        return (self.exec_code(self.module_code, callv, callm, mkcont, osr),
                source)

    def exec_source(self, source, callv, callm, mkcont, osr,
                    filename="<lancet-compiled>"):
        """Compile already-rendered source against this codegen's
        namespace (statics, natives, runtime hooks). This is the reload
        half of the persistent code cache: cached source re-enters here
        without any staging."""
        return self.exec_code(compile(source, filename, "exec"),
                              callv, callm, mkcont, osr)

    def exec_code(self, code, callv, callm, mkcont, osr):
        """Run a compiled module code object (from :meth:`exec_source`
        or unmarshaled from the persistent cache) in this codegen's
        namespace and return the function it defines."""
        namespace = self._namespace(callv, callm, mkcont, osr)
        exec(code, namespace)
        return namespace[self.fn_name]

    def _namespace(self, callv, callm, mkcont, osr):
        import math as _math

        from repro.compiler.deopt import DeoptException
        from repro.interp.interpreter import GuestThrow
        from repro.runtime import ops
        from repro.runtime.natives import to_guest_string
        from repro.runtime.objects import Obj, new_instance

        def _newarr(n):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                from repro.errors import GuestTypeError
                raise GuestTypeError("bad array length %r" % (n,))
            return [None] * n

        ns = {
            "K": self.statics.objects,
            "vm": self.vm,
            "_add": ops.guest_add, "_sub": ops.guest_sub,
            "_mul": ops.guest_mul, "_div": ops.guest_div,
            "_mod": ops.guest_mod, "_neg": ops.guest_neg,
            "_eq": ops.guest_eq, "_ne": ops.guest_ne,
            "_lt": ops.guest_lt, "_le": ops.guest_le,
            "_gt": ops.guest_gt, "_ge": ops.guest_ge,
            "_getf": ops.guest_getfield, "_putf": ops.guest_putfield,
            "_aload": ops.guest_aload, "_astore": ops.guest_astore,
            "_alen": ops.guest_alen,
            "_gstr": to_guest_string,
            "_Obj": Obj,
            "_newinst": new_instance,
            "_newarr": _newarr,
            "_DeoptEx": DeoptException,
            "_GuestThrow": GuestThrow,
            "_math": _math,
            "_callv": callv,
            "_callm": callm,
            "_mkcont": mkcont,
            "_osr": osr,
            "_drun": getattr(self.vm, "delite", None)
            and self.vm.delite.run or _no_delite,
        }
        ns.update(self._native_bindings)
        return ns
