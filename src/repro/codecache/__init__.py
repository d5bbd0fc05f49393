"""Persistent code cache + asynchronous compile service.

This is the repo's first subsystem whose state outlives a process. The
paper's code caches (``makeJIT``/``makeHOT``, §3.1) are in-memory, so
every process pays full warmup; production serving stacks add two
pieces, both provided here:

* :class:`PersistentCodeCache` — an on-disk, integrity-checked store of
  generated backend source, its marshaled code object, and metadata
  per compilation unit, keyed by a content fingerprint (guest bytecode
  hash × CompileOptions × macro-registry version × tier × backend,
  the program hash memoized per linker generation). Entries carry a format
  version and a sha256 checksum; a corrupt or truncated entry is
  *quarantined* and treated as a clean miss — the cache never crashes a
  compile. A size budget is enforced by LRU eviction (file mtime is the
  recency clock; hits ``touch`` their entry).

* :class:`CompileService` — a bounded worker pool behind a priority
  queue (OSR > tier-2 promote > tier-1 > prefetch) with in-flight
  dedup, per-request timeout, retry-with-backoff on transient failure,
  failure blacklisting, and backpressure (bounded queue that sheds the
  lowest-priority work first). Submissions never raise: when the
  service is saturated or a unit is blacklisted the caller simply keeps
  interpreting — graceful degradation is the contract.

See DESIGN.md ("Persistent caching & the compile service") for why the
macro-registry version must be part of the cache key.
"""

from repro.codecache.fingerprint import (macro_fingerprint,
                                         options_signature,
                                         program_fingerprint,
                                         unit_fingerprint)
from repro.codecache.service import (PRIORITY_OSR, PRIORITY_PREFETCH,
                                     PRIORITY_TIER1, PRIORITY_TIER2,
                                     CompileRequest, CompileService)
from repro.codecache.store import FORMAT_VERSION, PersistentCodeCache

__all__ = [
    "PersistentCodeCache", "FORMAT_VERSION",
    "CompileService", "CompileRequest",
    "PRIORITY_OSR", "PRIORITY_TIER2", "PRIORITY_TIER1", "PRIORITY_PREFETCH",
    "unit_fingerprint", "program_fingerprint", "options_signature",
    "macro_fingerprint",
]
