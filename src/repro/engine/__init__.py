"""Staged campaign engine: scheduler / executor / collector.

The classic monolithic testing loop (``repro.core.compi.Compi``) is now
a thin façade over this package.  See ``docs/ARCHITECTURE.md`` for the
stage contracts.
"""

from .collector import Collector
from .engine import CampaignEngine
from .executor import ExecOutcome, execute, outcome_from_record
from .scheduler import Candidate, Scheduler

__all__ = [
    "CampaignEngine", "Candidate", "Collector", "ExecOutcome", "Scheduler",
    "execute", "outcome_from_record",
]
