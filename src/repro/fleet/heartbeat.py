"""Per-shard heartbeat files: "slow but progressing" vs "wedged".

A shard worker touches its heartbeat file with every campaign-log
record; the fleet scheduler reads the file's age to tell a shard making
slow progress from one that has stopped entirely.  The files live under
``<fleet>/heartbeats/``, one per shard.
"""

from __future__ import annotations

import os
import time
from typing import Optional


class HeartbeatMonitor:
    """The heartbeat files of one fleet directory."""

    def __init__(self, dir: str):
        os.makedirs(dir, exist_ok=True)
        self.dir = dir

    def path_for(self, ident) -> str:
        return os.path.join(self.dir, f"hb-{ident}")

    @staticmethod
    def touch(path: str) -> None:
        """Touch one heartbeat file (called from the worker process)."""
        with open(path, "a"):
            os.utime(path, None)

    def age_of(self, ident, now: Optional[float] = None) -> Optional[float]:
        """Age of one worker's heartbeat in seconds; None when that
        worker never checked in (treat as alive — still starting up)."""
        try:
            mtime = os.stat(self.path_for(ident)).st_mtime
        except OSError:
            return None
        now = time.time() if now is None else now
        return max(0.0, now - mtime)

    def clear(self, ident) -> None:
        """Forget one worker's heartbeat (a finished shard must not look
        'fresh' to the next staleness check)."""
        try:
            os.unlink(self.path_for(ident))
        except OSError:
            pass

    def cleanup(self) -> int:
        """Remove every heartbeat file; returns how many were removed
        (the resume path reports the stale heartbeats a dead session
        left behind).  The directory itself is shared and stays."""
        removed = 0
        try:
            for name in os.listdir(self.dir):
                try:
                    os.unlink(os.path.join(self.dir, name))
                    removed += 1
                except OSError:
                    pass
        except OSError:
            pass
        return removed
