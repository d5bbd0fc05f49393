"""A generic worklist dataflow solver over the staged-IR CFG.

An analysis subclasses :class:`ForwardAnalysis` or
:class:`BackwardAnalysis` and provides lattice operations (``bottom``,
``join``) plus a per-block ``transfer`` function. :func:`solve` iterates a
worklist to fixpoint and returns the value at every block boundary.

Forward analyses may additionally override ``edge_value`` to specialize
the value flowing along one edge — this is how block-parameter phis are
modelled: the predecessor's terminator assigns ``(param, rep)`` pairs, so
facts about ``rep`` in the predecessor become facts about ``param`` in the
successor (see :mod:`repro.analysis.taint`).

Values must be treated as immutable: ``transfer``/``join`` return new
values rather than mutating their inputs, so the solver can compare
old/new with ``==`` for the change test.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.cfg import predecessors, reverse_postorder


class ForwardAnalysis:
    """Facts flow entry → exit; ``transfer`` maps a block's IN to its OUT."""

    direction = "forward"

    def boundary(self, blocks, entry_id):
        """Initial IN value of the entry block."""
        return self.bottom()

    def bottom(self):
        """The 'no information yet' lattice value."""
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, block, value):
        raise NotImplementedError

    def edge_value(self, block, succ_id, out_value):
        """The value flowing along the edge ``block → succ_id``; defaults
        to the block's OUT value."""
        return out_value


class BackwardAnalysis:
    """Facts flow exit → entry; ``transfer`` maps a block's OUT to its IN."""

    direction = "backward"

    def boundary(self, blocks, entry_id):
        """Initial OUT value of exit blocks."""
        return self.bottom()

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, block, value):
        raise NotImplementedError


def solve(blocks, entry_id, analysis):
    """Run ``analysis`` to fixpoint; returns ``{block_id: (in, out)}``.

    Unreachable blocks keep their ``bottom`` boundary value. The worklist
    is seeded in reverse postorder (forward) or postorder (backward) so
    acyclic regions converge in one sweep; loops iterate until stable.
    A forward block joins only predecessors that have an OUT and is
    transferred once per change of its IN (once each, if acyclic).
    """
    if analysis.direction == "forward":
        return _solve_forward(blocks, entry_id, analysis)
    return _solve_backward(blocks, entry_id, analysis)


def _solve_forward(blocks, entry_id, analysis):
    preds = predecessors(blocks)
    order = reverse_postorder(blocks, entry_id)
    in_val = {bid: analysis.bottom() for bid in blocks}
    out_val = {}
    if entry_id in blocks:
        in_val[entry_id] = analysis.boundary(blocks, entry_id)

    # The entry and every loop header (a predecessor at or after it in
    # reverse postorder) join their previous IN, so their IN only ascends
    # and widening joins cannot oscillate round a loop.
    rank = {bid: i for i, bid in enumerate(order)}
    ascending = {bid for bid in order
                 if any(rank.get(p, -1) >= rank[bid] for p in preds[bid])}
    ascending.add(entry_id)

    work = deque(order)
    queued = set(order)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        block = blocks[bid]
        merged = in_val[bid] if bid in ascending else analysis.bottom()
        for pred in preds[bid]:
            if pred in out_val:
                edge = analysis.edge_value(blocks[pred], bid, out_val[pred])
                merged = analysis.join(merged, edge)
        if bid in out_val and merged == in_val[bid]:
            continue
        in_val[bid] = merged
        new_out = analysis.transfer(block, merged)
        if bid not in out_val or new_out != out_val[bid]:
            out_val[bid] = new_out
            for succ in block.terminator.successors():
                if succ in blocks and succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    for bid in blocks:
        if bid not in out_val:
            out_val[bid] = analysis.transfer(blocks[bid], in_val[bid])
    return {bid: (in_val[bid], out_val[bid]) for bid in blocks}


def _solve_backward(blocks, entry_id, analysis):
    order = reverse_postorder(blocks, entry_id)
    # Postorder seeds backward problems efficiently; include any blocks
    # unreachable from the entry at the end so they still get values.
    seed = list(reversed(order)) + [b for b in blocks if b not in set(order)]
    out_val = {bid: analysis.boundary(blocks, entry_id) for bid in blocks}
    in_val = {}
    for bid in blocks:
        in_val[bid] = analysis.transfer(blocks[bid], out_val[bid])

    preds = predecessors(blocks)
    work = deque(seed)
    queued = set(seed)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        block = blocks[bid]
        merged = analysis.boundary(blocks, entry_id)
        for succ in block.terminator.successors():
            if succ in blocks:
                merged = analysis.join(merged, in_val[succ])
        out_val[bid] = merged
        new_in = analysis.transfer(block, merged)
        if new_in != in_val[bid]:
            in_val[bid] = new_in
            for pred in preds[bid]:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)
    return {bid: (in_val[bid], out_val[bid]) for bid in blocks}
