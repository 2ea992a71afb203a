"""Staged campaign engine: scheduler / executor / collector.

``repro.core.compi.Compi`` builds the stages and runs or resumes the
campaign through :class:`CampaignEngine`, which owns them and writes
the checkpoint from each stage's ``state_dict``.  See
``docs/ARCHITECTURE.md`` for the stage contracts.
"""

from .collector import Collector
from .engine import CampaignEngine
from .executor import ExecOutcome, execute, outcome_from_record
from .scheduler import Candidate, Scheduler

__all__ = [
    "CampaignEngine", "Candidate", "Collector", "ExecOutcome", "Scheduler",
    "execute", "outcome_from_record",
]
