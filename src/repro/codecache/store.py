"""The on-disk persistent code cache.

Layout: one JSON file per entry under the cache root, named by the
unit's content fingerprint::

    <cache_dir>/
      <fingerprint>.json            # {"format", "sha256", "payload"}
      <fingerprint>.json.quarantine # a corrupt entry, kept for autopsy

Robustness contract (a cache must never make things worse):

* every read verifies the format version and a sha256 over the
  canonical payload encoding; any parse failure, checksum mismatch, or
  truncation **quarantines** the file (rename, ``codecache.quarantine``
  event) and reports a clean miss;
* a format-version mismatch is a clean miss (no quarantine — the file
  may belong to a newer build sharing the directory);
* writes are atomic (temp file + ``os.replace``), so a crashed or
  concurrent writer can't leave a torn entry under the real name;
* any OSError anywhere degrades to miss/no-op with a telemetry event.

Recency for the size-budget LRU is file mtime: hits ``touch`` their
entry, eviction removes oldest-first until the budget holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

from repro.codecache.fingerprint import unit_fingerprint
from repro.codecache.serialize import (Unpersistable, build_payload,
                                       rehydrate)

FORMAT_VERSION = 2

_SUFFIX = ".json"
_QUARANTINE_SUFFIX = ".quarantine"


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload):
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class PersistentCodeCache:
    """Warm-start store of generated backend source + metadata, keyed by
    content fingerprint. All operations are miss/no-op on failure."""

    def __init__(self, root, budget_bytes=64 << 20, telemetry=None,
                 backend="python"):
        self.root = os.path.abspath(root)
        self.budget_bytes = budget_bytes
        self.telemetry = telemetry
        self.backend = backend
        self.enabled = True
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            self.enabled = False
            self._event("codecache.disabled", error=str(exc))

    # -- telemetry -------------------------------------------------------------

    _COUNTER = {
        "codecache.hit": "codecache.hits",
        "codecache.miss": "codecache.misses",
        "codecache.store": "codecache.stores",
        "codecache.skip": "codecache.skips",
        "codecache.evict": "codecache.evicts",
        "codecache.quarantine": "codecache.quarantines",
        "codecache.invalidate": "codecache.invalidates",
        "codecache.version_miss": "codecache.version_misses",
        "codecache.link_miss": "codecache.link_misses",
        "codecache.error": "codecache.errors",
        "codecache.disabled": "codecache.disabled",
    }

    def _event(self, kind, **data):
        tel = self.telemetry
        if tel is not None:
            tel.inc(self._COUNTER.get(kind, kind))
            tel.record(kind, **data)

    # -- keys ------------------------------------------------------------------

    def fingerprint(self, jit, method, options, kind="unit"):
        return unit_fingerprint(jit, method, options, backend=self.backend,
                                kind=kind)

    def _path(self, fingerprint):
        return os.path.join(self.root, fingerprint + _SUFFIX)

    # -- load ------------------------------------------------------------------

    def _kind_count(self, what, kind):
        """Per-kind hit/miss attribution (method unit vs trace vs
        baseline), so fleet warm-start wins are chargeable per tier."""
        tel = self.telemetry
        if tel is not None and kind:
            tel.inc("codecache.%s.%s" % (what, kind))

    def load(self, fingerprint, jit, recompile=None, kind="unit"):
        """Warm-start lookup: returns a rehydrated CompiledFunction, or
        ``None`` (a cold miss) — never raises. ``kind`` is the caller's
        expectation (``unit`` | ``baseline`` | ``trace``) and only feeds
        the per-kind hit/miss counters; the payload's own kind decides
        how the entry rehydrates."""
        if not self.enabled:
            return None
        path = self._path(fingerprint)
        t0 = time.perf_counter()
        try:
            with open(path, encoding="utf-8") as f:
                wrapper = json.load(f)
        except FileNotFoundError:
            self._event("codecache.miss", fingerprint=fingerprint)
            self._kind_count("misses", kind)
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, "unreadable entry: %s" % exc)
            self._kind_count("misses", kind)
            return None
        try:
            if wrapper.get("format") != FORMAT_VERSION:
                # Not corruption — likely another build's entry.
                self._event("codecache.version_miss",
                            fingerprint=fingerprint,
                            found=wrapper.get("format"),
                            expected=FORMAT_VERSION)
                self._event("codecache.miss", fingerprint=fingerprint)
                self._kind_count("misses", kind)
                return None
            payload = wrapper["payload"]
            if wrapper.get("sha256") != _checksum(payload):
                self._quarantine(path, "sha256 mismatch")
                self._kind_count("misses", kind)
                return None
            compiled = rehydrate(payload, jit, recompile=recompile)
        except Exception as exc:
            # A checksummed entry that still fails to rehydrate is
            # corrupt-by-construction for this process: sideline it.
            self._quarantine(path, "rehydrate failed: %s" % exc)
            self._kind_count("misses", kind)
            return None
        if compiled is None:
            # Links against methods/natives this VM doesn't have.
            self._event("codecache.link_miss", fingerprint=fingerprint)
            self._event("codecache.miss", fingerprint=fingerprint)
            self._kind_count("misses", kind)
            return None
        compiled.persist_key = fingerprint
        compiled.report.phases["codecache_load"] = time.perf_counter() - t0
        self._touch(path)
        tel = self.telemetry
        if tel is not None:
            tel.observe("codecache.load", time.perf_counter() - t0)
        self._event("codecache.hit", fingerprint=fingerprint,
                    unit=payload["unit"], tier=payload["tier"])
        self._kind_count("hits", payload.get("kind") or kind)
        return compiled

    # -- store -----------------------------------------------------------------

    def store(self, fingerprint, compiled, options):
        """Persist one freshly compiled unit; returns True on success.
        Unpersistable units and I/O failures degrade to a ``skip``/
        ``error`` event."""
        if not self.enabled:
            return False
        try:
            payload = build_payload(compiled, fingerprint, options,
                                    backend=self.backend)
        except Unpersistable as exc:
            self._event("codecache.skip", unit=compiled.name,
                        reason=str(exc))
            return False
        wrapper = {"format": FORMAT_VERSION, "sha256": _checksum(payload),
                   "payload": payload}
        path = self._path(fingerprint)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    json.dump(wrapper, f)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._event("codecache.error", unit=compiled.name,
                        error=str(exc))
            return False
        compiled.persist_key = fingerprint
        self._event("codecache.store", fingerprint=fingerprint,
                    unit=compiled.name, tier=payload["tier"],
                    bytes=len(payload.get("source")
                              or payload.get("code", "")))
        self._enforce_budget()
        return True

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, fingerprint, reason="invalidated"):
        """Drop one persistent entry (e.g. its stable-value speculation
        failed at runtime: the snapshot baked into the source is dead)."""
        if not self.enabled:
            return False
        path = self._path(fingerprint)
        try:
            os.unlink(path)
        except OSError:
            return False
        self._event("codecache.invalidate", fingerprint=fingerprint,
                    reason=reason)
        return True

    # -- maintenance -----------------------------------------------------------

    def _entry_files(self):
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        out = []
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def _enforce_budget(self):
        if self.budget_bytes is None:
            return
        entries = sorted(self._entry_files())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.budget_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self._event("codecache.evict", path=os.path.basename(path),
                        bytes=size)

    def _touch(self, path):
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _quarantine(self, path, reason):
        """Sideline a corrupt entry: rename it out of the entry namespace
        so it reads as a clean miss forever after, and keep the bytes for
        debugging. Never raises."""
        try:
            os.replace(path, path + _QUARANTINE_SUFFIX)
        except OSError:
            try:                  # rename failed (permissions?): best-effort
                os.unlink(path)   # removal so we don't re-quarantine forever
            except OSError:
                pass
        self._event("codecache.quarantine", path=os.path.basename(path),
                    reason=reason)
        self._event("codecache.miss", path=os.path.basename(path))

    # -- stats -----------------------------------------------------------------

    def stats(self):
        entries = self._entry_files()
        m = self.telemetry.metrics if self.telemetry is not None else None
        counters = {}
        if m is not None:
            for what in ("hits", "misses", "stores", "skips", "evicts",
                         "quarantines", "invalidates", "version_misses",
                         "link_misses", "errors"):
                counters[what] = m.get("codecache.%s" % what)
            # Per-kind warm-start attribution (method units vs trace vs
            # baseline), populated by the kind-aware load() counters.
            by_kind = {}
            for k in ("unit", "baseline", "trace"):
                hits = m.get("codecache.hits.%s" % k)
                misses = m.get("codecache.misses.%s" % k)
                if hits or misses:
                    by_kind[k] = {"hits": hits, "misses": misses}
            counters["by_kind"] = by_kind
        return {
            "enabled": self.enabled,
            "dir": self.root,
            "entries": len(entries),
            "size_bytes": sum(size for _, size, _ in entries),
            "budget_bytes": self.budget_bytes,
            **counters,
        }
