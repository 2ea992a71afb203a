"""Crash-safe file primitives shared by every durable store in the tool.

Two subsystems persist state that must survive a SIGKILL at any
instruction: the campaign JSONL log + pickle checkpoint (see
:mod:`repro.core.persist`) and the fleet manifest
(:mod:`repro.fleet.manifest`).  They all follow the same two
disciplines, factored out here so the guarantees stay in one place:

* **atomic replace** — new content goes to a temp file in the target's
  directory, is flushed and ``fsync``'d, then ``os.replace``'d over the
  target, and finally the *parent directory* is ``fsync``'d.  Without the
  directory sync a crash right after the rename can leave the directory
  entry unjournalled: the file's bytes are safe but the name pointing at
  them is not, and the entry silently vanishes on replay.
* **torn-tail-tolerant JSONL** — an append-only log whose reader accepts
  a truncated *final* line (the one record a crash can cut mid-write)
  but treats a malformed line anywhere else as real corruption.

Everything here is dependency-free and platform-tolerant: directory
``fsync`` degrades to a no-op where directories cannot be opened
(e.g. some network filesystems, Windows).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Optional, TextIO, Union

PathLike = Union[str, Path]


def fsync_dir(path: PathLike) -> None:
    """``fsync`` a directory so renames/creates inside it are durable.

    Best effort: silently a no-op on platforms or filesystems where a
    directory cannot be opened read-only for syncing.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename +
    parent-directory fsync).  A crash at any point leaves either the old
    complete content or the new complete content, never a mix — and the
    rename itself cannot be lost to an unsynced directory."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    fsync_dir(target.parent)
    return target


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> Path:
    """:func:`atomic_write_bytes` for text content."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: PathLike, obj: Any) -> Path:
    """Atomically replace ``path`` with ``obj`` as sorted-key JSON."""
    return atomic_write_text(path, json.dumps(obj, sort_keys=True,
                                              indent=2) + "\n")


def read_jsonl(path: PathLike, tolerate_torn_tail: bool = True
               ) -> Iterator[dict]:
    """Yield the JSON objects of an append-only JSONL file, line by line.

    With ``tolerate_torn_tail`` (the default) a truncated *final* line —
    the one record a crash can cut in half mid-write — is skipped
    silently; a malformed line anywhere else raises, since that means
    real corruption rather than an interrupted append.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    last = len(lines) - 1
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if tolerate_torn_tail and i == last:
                return  # torn tail from an interrupted write
            raise


class JsonlAppender:
    """Append-only JSONL writer with per-record flush and bounded fsync.

    ``mode`` follows :class:`~repro.core.persist.CampaignLog`: ``"x"``
    refuses to clobber an existing file, ``"w"`` overwrites, ``"a"``
    appends (resume).  Records are flushed on every write and
    ``fsync``'d every ``fsync_every`` records and on close; creating the
    file also syncs the parent directory, so a crash immediately after
    open cannot lose the file's directory entry.
    """

    def __init__(self, path: PathLike, mode: str = "x",
                 fsync_every: int = 1):
        if mode not in ("x", "w", "a"):
            raise ValueError(f"mode must be 'x', 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.fsync_every = max(1, int(fsync_every))
        self._fh: Optional[TextIO] = None
        self._since_sync = 0

    def __enter__(self) -> "JsonlAppender":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def open(self) -> "JsonlAppender":
        if self._fh is not None:
            return self
        if self.mode == "x" and self.path.exists():
            raise FileExistsError(f"{self.path} already exists")
        existed = self.path.exists()
        self._fh = self.path.open("a" if self.mode == "a" else "w",
                                  encoding="utf-8")
        if not existed:
            fsync_dir(self.path.parent)
        return self

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def sync(self) -> None:
        """Force appended records to disk (flush + fsync)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._since_sync = 0

    def write(self, obj: dict) -> None:
        if self._fh is None:
            raise RuntimeError(f"JsonlAppender({self.path}) is not open")
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()
