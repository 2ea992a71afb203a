"""Supervised execution: the layer between the engine and the OS.

Long concolic campaigns deliberately provoke executions that crash,
spin, and exhaust memory.  The PR-1/PR-2 engine survives *in-process*
failures (exceptions, watchdog timeouts, deadlock cycles); this package
survives failures of the executing **process** itself and turns the
harvested crashes into something actionable:

* :mod:`repro.supervise.sandbox` — fork-isolated execution under
  ``resource.setrlimit`` caps, with distinct ``oom`` / ``cpu-cap``
  classification for resource kills, plus the campaign supervisor's
  kill accounting and canonical-input quarantine;
* :mod:`repro.supervise.triage` — signature-based crash dedup and the
  self-contained reproducer artifacts under ``<log>.repro/``;
* :mod:`repro.supervise.minimize` — ddmin delta-debugging of the
  symbolic input vector down to a minimal reproducer.
"""

from .minimize import ddmin, minimize_inputs
from .sandbox import (CampaignSupervisor, QuarantineEntry, ResourceLimits,
                      SandboxDeath, SupervisionStats, apply_rlimits,
                      arm_cpu_limit, canonical_input_key, run_sandboxed)
from .triage import (CrashTriage, crash_signature, load_artifacts,
                     repro_dir, signature_filename)

__all__ = [
    "CampaignSupervisor", "CrashTriage", "QuarantineEntry",
    "ResourceLimits", "SandboxDeath", "SupervisionStats", "apply_rlimits",
    "arm_cpu_limit", "canonical_input_key", "crash_signature", "ddmin",
    "load_artifacts", "minimize_inputs", "repro_dir", "run_sandboxed",
    "signature_filename",
]
