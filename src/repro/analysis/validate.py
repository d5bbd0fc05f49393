"""Per-pass translation validation (Alive-style) for the optimizer.

PR 6 found a real miscompile (bridges writing pruned-invariant header
slots) only because the differential fuzzer happened to trip over it.
This module turns that kind of luck into a per-compile guarantee: the
PassManager snapshots a summary of the IR before each tier-2/trace pass
and, after the pass, checks a *simulation relation* between the two
versions instead of trusting the pass:

* **defined-value preservation** — the after-IR still satisfies the IR
  verifier (every use dominated by its definition, phi discipline, deopt
  metadata well-formed), so a pass cannot leave a dangling reference;
* **effectful-op order and count** — the multiset of externally visible
  operations (heap writes, IO, residual calls) is preserved, and within
  each surviving block their relative order is a subsequence of the
  original.  Per-pass policy encodes the *allowed* deltas: scalar
  replacement may delete stores to a sunk allocation, range pruning may
  delete whole proven-unreachable blocks, GVN may deduplicate calls a
  summary proves pure — but no pass may *introduce* or *reorder*
  effects;
* **guard weakening only** — the multiset of guards (kind, condition
  term, deopt reason) after the pass is a sub-multiset of the guards
  before it.  A pass may prove a check redundant and drop it; it may
  never add a speculation or silently change what an existing guard
  tests;
* **symbolic evaluation of the straight-line entry segment** — both
  versions are executed on a small abstract store (terms over an
  uninterpreted heap with a store epoch); the effect event sequences
  and the final terminator (branch condition / return value term) must
  agree.

Comparisons are *name-insensitive*: every value is reduced to a
structural term by resolving ``id`` copies, folding redundant block
parameters exactly the way GVN's phi simplification does, and
canonicalizing commutative operands — so sound renames never trip the
validator, while a dropped store, a reordered call, or a strengthened
guard always does.

Findings are plain strings; :class:`repro.pipeline.passes.PassManager`
raises :class:`~repro.errors.TranslationValidationError` (enforce mode)
or records ``validate`` diagnostics (collect mode) and the compile falls
back to an unvalidated-pass-off recompile.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.cfg import phi_assigns_for_edge, reachable_from
from repro.analysis.effects import COPY_OPS
from repro.analysis.verify import verify_ir
from repro.lms.ir import Branch, Effect, Jump, Return
from repro.lms.rep import ConstRep, Rep, StaticRep, Sym

#: Passes the validator knows a simulation policy for (the PassManager
#: snapshots before exactly these).
VALIDATED_PASSES = ("fuse", "gvn", "licm", "sink", "range", "dce", "guards")

#: Effects that are externally visible and therefore tracked.
_TRACKED = (Effect.WRITE, Effect.IO, Effect.CALL)

# Per-pass simulation policy. A pass outside the "equal" set for an
# effect class is allowed to *delete* ops of that class (never to add):
# sink deletes stores to scalar-replaced allocations, range deletes
# proven-unreachable blocks wholesale, gvn deduplicates calls whose
# summary proves them pure.
_EQUAL_WRITE_IO = frozenset(("fuse", "gvn", "licm", "dce", "guards"))
_EQUAL_CALL = frozenset(("fuse", "licm", "sink", "dce", "guards"))
#: Structure-preserving passes: per-block effect order must survive.
_ORDERED = frozenset(("gvn", "licm", "sink", "dce", "guards"))
#: Passes whose straight-line segment must replay *identically*.
_SEGMENT_EXACT = frozenset(("fuse", "gvn", "licm", "dce", "guards"))

_COMMUTATIVE_ALWAYS = ("eq", "ne")
_COMMUTATIVE_NUM = ("add", "mul")
_MAX_TERM_DEPTH = 80
_MAX_SEGMENT_STMTS = 500
_MAX_SEGMENT_BLOCKS = 80


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class _TermBuilder:
    """Structural value numbering for one IR version.

    ``term(rep)`` reduces a Rep to a hashable tree that is invariant
    under renaming: ``id``/taint copies are transparent, block params
    whose every incoming edge carries one same term fold to it (the
    relation GVN's ``_simplify_phis`` rewrites by), commutative operands
    are sorted, and non-pure results become opaque ``("eff", op, args)``
    nodes.
    """

    def __init__(self, blocks):
        self.defs = {}          # sym name -> defining Stmt
        self.block_params = set()
        self.param_edges = {}   # param name -> [incoming Rep, ...]
        for block in blocks.values():
            self.block_params.update(block.params)
            for stmt in block.stmts:
                self.defs[stmt.sym.name] = stmt
        for block in blocks.values():
            for succ in set(block.terminator.successors()):
                if succ not in blocks:
                    continue
                for name, rep in phi_assigns_for_edge(block.terminator,
                                                      succ):
                    self.param_edges.setdefault(name, []).append(rep)
        self.memo = {}
        self._active = set()    # params whose term is being built

    def term(self, rep, depth=0):
        if isinstance(rep, ConstRep):
            return ("const", type(rep.value).__name__,
                    _hashable(rep.value))
        if isinstance(rep, StaticRep):
            return ("static", rep.index)
        if not isinstance(rep, Sym):
            return ("imm", _hashable(rep))
        name = rep.name
        hit = self.memo.get(name)
        if hit is not None:
            return hit
        if name in self._active:
            # Every cycle passes through a block param, so params are the
            # only cut points, and a cut reads as the param's own leaf:
            # what a param re-entered through its cycle resolves to. A
            # cut-marker term would make every term built across it
            # depend on which sym the walk entered the cycle at.
            return ("param", name)
        if depth > _MAX_TERM_DEPTH:
            return ("rec", name)
        if name in self.block_params:
            self._active.add(name)
        try:
            t = self._term_of_name(name, depth)
        finally:
            self._active.discard(name)
        self.memo[name] = t
        return t

    def _term_of_name(self, name, depth):
        stmt = self.defs.get(name)
        if stmt is not None:
            if stmt.op in COPY_OPS and stmt.args:
                return self.term(stmt.args[0], depth + 1)
            args = self.arg_terms(stmt, depth + 1)
            if stmt.effect is Effect.PURE:
                return (stmt.op,) + args
            return ("eff", stmt.op) + args
        if name in self.block_params:
            cands = [r for r in self.param_edges.get(name, ())
                     if not (isinstance(r, Sym) and r.name == name)]
            if cands:
                terms = {self.term(r, depth + 1) for r in cands}
                if len(terms) == 1:
                    return terms.pop()
            return ("param", name)
        return ("free", name)

    def arg_terms(self, stmt, depth=0):
        """The statement's operand terms, commutatively canonicalized."""
        args = tuple(self.term(a, depth) if isinstance(a, Rep)
                     else ("imm", _hashable(a)) for a in stmt.args)
        if len(args) == 2 and (
                stmt.op in _COMMUTATIVE_ALWAYS
                or (stmt.op in _COMMUTATIVE_NUM and stmt.flags.get("num"))):
            args = tuple(sorted(args, key=repr))
        return args


class IRSummary:
    """Everything the simulation relation compares, computed eagerly so
    in-place pass mutation cannot corrupt the 'before' side."""

    __slots__ = ("block_effects", "write_io", "calls", "guards", "segment")

    def __init__(self, block_effects, write_io, calls, guards, segment):
        self.block_effects = block_effects  # {bid: [skeleton, ...]}
        self.write_io = write_io            # Counter of skeletons
        self.calls = calls                  # Counter of skeletons
        self.guards = guards                # Counter of guard identities
        self.segment = segment              # (kind, term, events tuple)


def snapshot_ir(result):
    """Summarize ``result``'s IR for later comparison by
    :func:`validate_pass`."""
    blocks, entry = result.blocks, result.entry_bid
    metas = result.metas
    tb = _TermBuilder(blocks)
    reachable = reachable_from(blocks, entry)
    block_effects = {}
    write_io, calls, guards = Counter(), Counter(), Counter()
    for bid in sorted(reachable):
        seq = []
        for stmt in blocks[bid].stmts:
            if stmt.op in ("guard", "guard_not"):
                meta = None
                if len(stmt.args) >= 2 and isinstance(stmt.args[1], int) \
                        and 0 <= stmt.args[1] < len(metas):
                    meta = metas[stmt.args[1]]
                guards[(stmt.op, tb.term(stmt.args[0]) if stmt.args
                        else ("imm", None),
                        getattr(meta, "reason", None),
                        getattr(meta, "kind", None))] += 1
                continue
            if stmt.op in COPY_OPS or stmt.effect not in _TRACKED:
                continue
            skeleton = (stmt.op,) + tb.arg_terms(stmt)
            seq.append(skeleton)
            if stmt.effect is Effect.CALL:
                calls[skeleton] += 1
            else:
                write_io[skeleton] += 1
        block_effects[bid] = seq
    return IRSummary(block_effects, write_io, calls, guards,
                     _segment(result))


def _segment(result):
    """Symbolically evaluate the straight-line entry segment on a small
    abstract store: terms over an uninterpreted heap whose reads carry
    the current store epoch.  Returns ``(kind, terminator term, effect
    events)`` where kind is 'branch' | 'return' | 'loop' | 'deopt' |
    'cap'."""
    blocks, entry = result.blocks, result.entry_bid
    env = {p: ("free", p) for p in result.param_names}
    events = []
    visited = set()
    steps = 0

    def ev(rep):
        if isinstance(rep, Sym):
            return env.get(rep.name, ("free", rep.name))
        if isinstance(rep, ConstRep):
            return ("const", type(rep.value).__name__, _hashable(rep.value))
        if isinstance(rep, StaticRep):
            return ("static", rep.index)
        return ("imm", _hashable(rep))

    bid = entry
    while bid in blocks and bid not in visited \
            and len(visited) < _MAX_SEGMENT_BLOCKS:
        visited.add(bid)
        block = blocks[bid]
        for stmt in block.stmts:
            steps += 1
            if steps > _MAX_SEGMENT_STMTS:
                return ("cap", None, tuple(events))
            name = stmt.sym.name
            if stmt.op in COPY_OPS and stmt.args:
                env[name] = ev(stmt.args[0])
                continue
            if stmt.op in ("guard", "guard_not"):
                env[name] = ("guarded",)
                continue
            args = tuple(ev(a) if isinstance(a, Rep)
                         else ("imm", _hashable(a)) for a in stmt.args)
            if len(args) == 2 and (
                    stmt.op in _COMMUTATIVE_ALWAYS
                    or (stmt.op in _COMMUTATIVE_NUM
                        and stmt.flags.get("num"))):
                args = tuple(sorted(args, key=repr))
            if stmt.effect is Effect.PURE:
                env[name] = (stmt.op,) + args
            elif stmt.effect is Effect.READ:
                env[name] = ("read", stmt.op, args, len(events))
            elif stmt.effect is Effect.ALLOC:
                env[name] = ("alloc", stmt.op, args)
            else:
                events.append((stmt.op,) + args)
                env[name] = ("effres", stmt.op, args, len(events))
        term = block.terminator
        if isinstance(term, Jump):
            # Bind phi values before entering the target (simultaneous
            # assignment: evaluate all under the current env first).
            bound = [(n, ev(r)) for n, r in term.phi_assigns]
            env.update(bound)
            bid = term.target
            continue
        if isinstance(term, Branch):
            return ("branch", ev(term.cond), tuple(events))
        if isinstance(term, Return):
            return ("return", ev(term.value), tuple(events))
        return ("deopt", None, tuple(events))
    return ("loop", None, tuple(events))


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def _describe(counter, limit=3):
    items = ["%s x%d" % (sk[0] if isinstance(sk, tuple) else sk, n)
             for sk, n in list(counter.items())[:limit]]
    extra = len(counter) - limit
    if extra > 0:
        items.append("(+%d more)" % extra)
    return ", ".join(items)


def validate_pass(pass_name, before, result):
    """Check the simulation relation between ``before`` (an
    :class:`IRSummary` snapshot) and ``result``'s current IR; returns a
    list of finding strings (empty = the pass simulates)."""
    after = snapshot_ir(result)
    findings = []

    # 1. Defined-value preservation: the after-IR must still verify.
    for err in verify_ir(result.blocks, result.entry_bid,
                         params=result.param_names, metas=result.metas,
                         stage="after %s" % pass_name, collect=True):
        findings.append("%s: ill-formed IR after pass: %s"
                        % (pass_name, err))

    # 2. Effectful-op count: never introduce; delete only where the
    #    pass's policy allows it.
    new_w = after.write_io - before.write_io
    if new_w:
        findings.append("%s: introduced effectful op(s): %s"
                        % (pass_name, _describe(new_w)))
    lost_w = before.write_io - after.write_io
    if lost_w and pass_name in _EQUAL_WRITE_IO:
        findings.append("%s: dropped effectful op(s): %s"
                        % (pass_name, _describe(lost_w)))
    new_c = after.calls - before.calls
    if new_c:
        findings.append("%s: introduced residual call(s): %s"
                        % (pass_name, _describe(new_c)))
    lost_c = before.calls - after.calls
    if lost_c and pass_name in _EQUAL_CALL:
        findings.append("%s: dropped residual call(s): %s"
                        % (pass_name, _describe(lost_c)))

    # 3. Effectful-op order: for structure-preserving passes each
    #    surviving block's effect sequence is a subsequence of what it
    #    was (with the count check above, equal multisets + subsequence
    #    means the order is untouched).
    if pass_name in _ORDERED:
        for bid, seq in after.block_effects.items():
            before_seq = before.block_effects.get(bid)
            if before_seq is None:
                continue
            if not _is_subsequence(seq, before_seq):
                findings.append(
                    "%s: effectful ops reordered in B%d" % (pass_name, bid))

    # 4. Guard weakening only: dropping a proven-redundant guard is
    #    fine; adding one, or changing what one tests, is not.
    new_g = after.guards - before.guards
    if new_g:
        findings.append(
            "%s: introduced or strengthened guard(s): %s"
            % (pass_name,
               ", ".join("%s[%s]" % (g[0], g[2]) for g in list(new_g)[:3])))

    # 5. Straight-line symbolic evaluation. Skipped for sink: scalar
    #    replacement legitimately deletes stores mid-sequence and
    #    rewrites the operands of surviving ops (field loads of a sunk
    #    allocation become the stored value), so neither prefix nor
    #    term equality holds; its effect deltas are covered by the
    #    counter policies above. For range the shared prefix must
    #    match (a folded branch may only *extend* the segment).
    if pass_name == "sink":
        return findings
    b_kind, b_term, b_events = before.segment
    a_kind, a_term, a_events = after.segment
    n = min(len(b_events), len(a_events))
    if b_events[:n] != a_events[:n]:
        at = next(i for i in range(n) if b_events[i] != a_events[i])
        findings.append(
            "%s: straight-line effect sequence diverges at event %d: "
            "%s vs %s" % (pass_name, at, b_events[at][0], a_events[at][0]))
    elif pass_name in _SEGMENT_EXACT:
        if len(b_events) != len(a_events):
            findings.append(
                "%s: straight-line effect count changed (%d -> %d)"
                % (pass_name, len(b_events), len(a_events)))
        elif b_kind == a_kind and b_kind in ("branch", "return") \
                and b_term != a_term:
            findings.append(
                "%s: straight-line %s value changed" % (pass_name, b_kind))
    return findings
