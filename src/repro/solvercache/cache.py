"""Counterexample cache: SAT models and UNSAT verdicts, two tiers.

Entries are keyed by the canonical query serialization
(:mod:`repro.solvercache.canonical`) and store either a SAT model over
canonical indices or an UNSAT verdict:

* **memory tier** — a bounded LRU (`OrderedDict`); insertion and
  eviction are deterministic functions of the committed query stream,
  which is what keeps a cached campaign reproducible for a fixed seed;
* **disk tier** (optional) — a JSONL file loaded at construction and
  appended on every committed store, so verdicts survive ``--resume``
  and carry across campaigns on the same target.  The reader tolerates
  a torn final line (the one a crash can cut mid-record), matching the
  campaign log's crash model.

A SAT hit is **never trusted blindly** — the caller replays the
de-canonicalized model through ``check_assignment`` before use, so a
stale or corrupted entry degrades to a miss, not to an unsound model.
UNSAT verdicts cannot be re-checked; they stay sound because full
canonical serializations (not digests) are the keys, so key equality
implies rename-equivalence.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

DEFAULT_CAPACITY = 4096


@dataclass
class CacheEntry:
    """One cached verdict: a canonical-index model, or UNSAT."""

    sat: bool
    model: Optional[dict[int, int]] = None  # canonical index -> value

    def to_json(self, key: str) -> str:
        obj: dict = {"k": key, "sat": self.sat}
        if self.model is not None:
            obj["m"] = {str(i): v for i, v in self.model.items()}
        return json.dumps(obj, sort_keys=True)

    @staticmethod
    def from_json(obj: dict) -> tuple[str, "CacheEntry"]:
        model = None
        if obj.get("m") is not None:
            model = {int(i): int(v) for i, v in obj["m"].items()}
        return obj["k"], CacheEntry(sat=bool(obj["sat"]), model=model)


class CounterexampleCache:
    """Bounded LRU of query verdicts with an optional JSONL disk tier."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 path: Optional[Union[str, Path]] = None):
        self.capacity = max(1, int(capacity))
        self.path = Path(path) if path is not None else None
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: entries evicted from the memory tier over this cache's life
        self.evictions = 0
        if self.path is not None and self.path.exists():
            self._load_disk_tier()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up a verdict; a hit refreshes its LRU recency."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: CacheEntry, persist: bool = True) -> None:
        """Store a verdict; appends to the disk tier when configured.

        A changed entry for an existing key (e.g. a replaced stale
        model) is re-appended: on reload, later lines win."""
        changed = self._entries.get(key) != entry
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if persist and changed and self.path is not None:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(entry.to_json(key) + "\n")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def sat_entries(self) -> int:
        return sum(1 for e in self._entries.values() if e.sat)

    @property
    def unsat_entries(self) -> int:
        return len(self._entries) - self.sat_entries

    # ------------------------------------------------------------------
    def _load_disk_tier(self) -> None:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        last = len(lines) - 1
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                key, entry = CacheEntry.from_json(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError):
                if i == last:
                    break  # torn tail from an interrupted append
                raise
            # load without re-persisting (the entry is already on disk)
            self.put(key, entry, persist=False)

