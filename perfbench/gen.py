"""Seeded input generation for every workload.

Everything the benchmark feeds the system under test is made here from
the ``--seed`` argument: the MiniJ corpora, the warmup call schedule, the
fleet's shape corpus and Zipf request stream, and the analytics data.
The same seed gives byte-identical inputs.

Corpus shapes are *stratified*: the structural features a compiler's
cost depends on (size, loop depth, helper calls, objects, closures, trip
counts) cycle through a fixed grid by position, and the seed only picks
the code inside each cell (operators, constants, statement order). Two
seeds therefore give different programs with the same cost profile,
which keeps seed-to-seed spread small.
"""

from __future__ import annotations

import itertools
import random

#: Modulus that keeps guest integers small (no bignum slow paths).
MOD = 10007

SIZES = (1, 2, 3, 4)          # statement groups in the entry loop body
DEPTHS = (0, 1, 2)            # extra nested loops per group
CALLS = (0, 1, 2)             # helper functions called from the loop
OBJECTS = (False, True)       # a small class allocated in the loop
CLOSURES = (False, True)      # a closure called in the loop


def feature_grid():
    """Every (size, depth, calls, objects, closures) cell, in a fixed
    order that interleaves the features."""
    cells = list(itertools.product(SIZES, DEPTHS, CALLS, OBJECTS, CLOSURES))
    # Interleave so any prefix spans all sizes and depths.
    return sorted(cells, key=lambda c: (cells.index(c) * 37) % len(cells))


def _term(rng, names):
    if rng.random() < 0.5:
        return rng.choice(names)
    return str(rng.randint(1, 97))


def _expr(rng, names, depth=2):
    """A non-negative integer expression over ``names``: a full binary
    tree of ``depth`` levels, so only its leaves and operators vary."""
    if depth == 0:
        return _term(rng, names)
    return "(%s %s %s)" % (_expr(rng, names, depth - 1),
                           rng.choice(["+", "*"]),
                           _expr(rng, names, depth - 1))


def minij_module(rng, prefix, size, depth, calls, objects, closures,
                 entry="run"):
    """MiniJ source whose static ``entry(n)`` returns an int.

    ``prefix`` names the helper class and functions, so several
    generated kernels can share one module. The outer loop runs ``n``
    iterations; nested loops run small constant trip counts.
    """
    out = []
    cls = "%sP" % prefix
    if objects:
        out.append("class %s { var a; var b;\n"
                   "  def init(a, b) { this.a = a; this.b = b; }\n"
                   "  def mix(k) { return (this.a * k + this.b) %% %d; } }"
                   % (cls, MOD))
    for h in range(calls):
        out.append("def %sh%d(x, y) {\n  if (x > y) { return %s %% %d; }\n"
                   "  return %s %% %d;\n}"
                   % (prefix, h, _expr(rng, ["x", "y"]), MOD,
                      _expr(rng, ["x", "y"]), MOD))
    body = ["  var acc = %d;" % rng.randint(1, 50), "  var i = 0;"]
    if closures:
        body.append("  var g = fun(z) => (z * %d + acc) %% %d;"
                    % (rng.randint(2, 9), MOD))
    body.append("  while (i < n) {")
    loop_vars = ["acc", "i"]
    for s in range(size):
        stmts = []
        kinds = ["arith", "branch"]
        if calls:
            kinds.append("call")
        if objects:
            kinds.append("obj")
        if closures:
            kinds.append("closure")
        kind = kinds[s % len(kinds)]
        counters = ["j%d_%d" % (s, d) for d in range(depth)]
        names = loop_vars + counters
        if kind == "arith":
            stmts.append("acc = (acc * %d + %s) %% %d;"
                         % (rng.randint(2, 9), _expr(rng, names), MOD))
        elif kind == "branch":
            stmts.append("if ((%s) %% %d == 0) { acc = (acc + %s) %% %d; }"
                         " else { acc = (acc * %d + 1) %% %d; }"
                         % (_expr(rng, names), rng.randint(2, 5),
                            _expr(rng, names), MOD, rng.randint(2, 9), MOD))
        elif kind == "call":
            stmts.append("acc = (acc + %sh%d(%s, acc)) %% %d;"
                         % (prefix, rng.randrange(calls), _expr(rng, names),
                            MOD))
        elif kind == "obj":
            stmts.append("var p%d = new %s(%s, acc);" % (s, cls,
                                                        _expr(rng, names)))
            stmts.append("acc = (acc + p%d.mix(%d)) %% %d;"
                         % (s, rng.randint(2, 9), MOD))
        else:
            stmts.append("acc = (acc + g(%s)) %% %d;"
                         % (_expr(rng, names), MOD))
        # Wrap in `depth` small nested loops.
        for j in reversed(counters):
            stmts = (["var %s = 0;" % j,
                      "while (%s < %d) {" % (j, rng.randint(2, 4))]
                     + ["  " + x for x in stmts]
                     + ["  %s = %s + 1;" % (j, j), "}"])
        body.extend("    " + x for x in stmts)
    body.append("    i = i + 1;")
    body.append("  }")
    body.append("  return acc;")
    out.append("def %s(n) {\n%s\n}" % (entry, "\n".join(body)))
    return "\n".join(out) + "\n"


def compile_corpus(seed, count=96):
    """The generated half of the ``compile`` corpus: ``count`` modules,
    one per grid cell (cycling), each with its call argument."""
    rng = random.Random("compile-%d" % seed)
    grid = feature_grid()
    corpus = []
    for k in range(count):
        size, depth, calls, objects, closures = grid[k % len(grid)]
        src = minij_module(rng, "G%d" % k, size, depth, calls, objects,
                           closures)
        corpus.append({"name": "gen%02d" % k, "module": "G%d" % k,
                       "source": src, "arg": rng.randint(3, 9)})
    return corpus


# -- Zipf streams -------------------------------------------------------------


def zipf_counts(n, total, s):
    """How many of ``total`` draws each rank of ``range(n)`` gets under
    Zipf(``s``), P(k) proportional to ``1 / (k + 1) ** s``, rounded by
    largest remainder. This is an exact stratified sample: the per-rank
    counts do not depend on the seed, only the order of the draws does."""
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    short = total - sum(counts)
    for k in sorted(range(n), key=lambda k: counts[k] - exact[k])[:short]:
        counts[k] += 1
    return counts


def zipf_stream(rng, n, total, s):
    """``total`` ranks with Zipf(``s``) counts, in a seeded order."""
    ranks = [k for k, c in enumerate(zipf_counts(n, total, s))
             for __ in range(c)]
    rng.shuffle(ranks)
    return ranks


# -- warmup -------------------------------------------------------------------

#: Base trip counts of the warmup kernels, cycled by unit index. The long
#: ones cross the OSR back-edge threshold inside one interpreted call.
WARMUP_TRIPS = (3, 4, 6, 8, 10, 12, 16, 20)


def warmup_corpus(seed, units=400):
    """``units`` loop kernels in one module (``Warm.k<u>``), plus each
    kernel's base trip count. Kernel ``k<u>`` is the ``u``-th most
    popular."""
    rng = random.Random("warmup-%d" % seed)
    grid = feature_grid()
    parts, trips = [], []
    for u in range(units):
        size, __, calls, objects, closures = grid[u % len(grid)]
        parts.append(minij_module(rng, "W%d" % u, size, 0,
                                  calls, objects, closures,
                                  entry="k%d" % u))
        trips.append(WARMUP_TRIPS[u % len(WARMUP_TRIPS)])
    return {"source": "\n".join(parts), "units": units, "trips": trips}


def warmup_schedule(seed, corpus, calls=1500, s=0.3):
    """A seeded call sequence of ``(unit, n)`` pairs: Zipf(``s``) call
    counts over the kernels, each call's trip count jittered around its
    kernel's base."""
    rng = random.Random("warmup-schedule-%d" % seed)
    sched = []
    for unit in zipf_stream(rng, corpus["units"], calls, s):
        base = corpus["trips"][unit]
        sched.append((unit, base + rng.randint(0, max(1, base // 4))))
    return sched


# -- fleet --------------------------------------------------------------------


def fleet_corpus(seed, shapes=32):
    """The fleet's shape corpus: one module (``Fleet.s<k>``) of small
    request handlers; compiled and shared fleet-wide."""
    rng = random.Random("fleet-%d" % seed)
    grid = [c for c in feature_grid() if c[1] <= 1]
    parts = []
    for k in range(shapes):
        size, depth, calls, objects, closures = grid[k % len(grid)]
        parts.append(minij_module(rng, "F%d" % k, size, depth, min(calls, 1),
                                  objects, closures, entry="s%d" % k))
    return {"source": "\n".join(parts), "shapes": shapes}


def fleet_stream(seed, corpus, sessions, per_session=6, s=0.7):
    """The Zipf(``s``) request stream over the shapes, cut into
    ``sessions`` lists of ``per_session`` ``(shape, n)`` requests."""
    rng = random.Random("fleet-stream-%d" % seed)
    shapes = zipf_stream(rng, corpus["shapes"], sessions * per_session, s)
    requests = [(shape, rng.randint(2, 6)) for shape in shapes]
    return [requests[i:i + per_session]
            for i in range(0, len(requests), per_session)]


# -- analytics ----------------------------------------------------------------


def csv_lines(seed, rows, cols=20):
    """A CSV file (header + rows) shaped like the paper's Table 1 input,
    with a seeded ``Flag`` column."""
    rng = random.Random("csv-%d" % seed)
    header = ["Name"] + ["C%d" % j for j in range(1, cols - 1)] + ["Flag"]
    lines = [",".join(header)]
    for __ in range(rows):
        fields = ["n%d" % rng.randint(0, 9999)]
        fields += ["".join(rng.choice("abcdefghij")
                           for __ in range(rng.randint(1, 8)))
                   for __ in range(cols - 2)]
        fields.append(rng.choice(["yes", "no"]))
        lines.append(",".join(fields))
    return lines


def csv_keys(count=10):
    """The columns the CSV query reads."""
    return ["C%d" % j for j in range(1, count + 1)]


def kmeans_points(seed, n, k):
    rng = random.Random("kmeans-%d" % seed)
    centers = [(10.0 * c, 5.0 * (c % 2)) for c in range(k)]
    px, py = [], []
    for i in range(n):
        cx, cy = centers[i % k]
        px.append(cx + rng.gauss(0, 1.0))
        py.append(cy + rng.gauss(0, 1.0))
    return px, py


def logreg_columns(seed, n, d):
    rng = random.Random("logreg-%d" % seed)
    true_w = [((-1) ** j) * (j + 1) / d for j in range(d)]
    cols = [[rng.gauss(0, 1.0) for __ in range(n)] for __ in range(d)]
    y = [1.0 if sum(cols[j][i] * true_w[j] for j in range(d)) > 0 else 0.0
         for i in range(n)]
    return cols, y


def names(seed, n):
    rng = random.Random("names-%d" % seed)
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return sorted("".join(rng.choice(letters)
                          for __ in range(rng.randint(3, 10)))
                  for __ in range(n))
