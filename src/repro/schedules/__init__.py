"""Schedule-space exploration: message-interleaving search + replay.

COMPI's campaigns explore the *input* space; this package explores the
*schedule* space — the nondeterministic message-match decisions at
wildcard receives — with deterministic replay.  See docs/SCHEDULES.md.

* :mod:`~repro.schedules.schedule`   — decision records, canonical
  schedule IDs (encode/decode)
* :mod:`~repro.schedules.controller` — the injectable match policy
  (lazy matching; free decisions at exact quiesce; prescription replay)
* :mod:`~repro.schedules.tree`       — ScheduleTree + DFS frontier
"""

from .controller import ReplayController, ScheduleController
from .schedule import (Decision, decode_schedule, encode_schedule,
                       normalize_prescription, schedule_entries)
from .tree import ScheduleExplorer, ScheduleTree

__all__ = [
    "Decision",
    "ReplayController",
    "ScheduleController",
    "ScheduleExplorer",
    "ScheduleTree",
    "decode_schedule",
    "encode_schedule",
    "normalize_prescription",
    "schedule_entries",
]
