"""Crash triage: signature dedup and minimized reproducer artifacts.

A long campaign surfaces the same root-cause crash through many
different inputs.  Triage collapses them: every committed bug gets a
**crash signature** — normalized crash location, exception type, and a
hash of the top root-cause stack frames — and the *first* bug of each
signature is delta-debugged (:mod:`repro.supervise.minimize`) down to a
minimal input vector, then written as a self-contained JSON reproducer
under ``<log>.repro/``.  ``repro triage list|show|replay`` consumes the
artifacts.

Minimization probes leave the campaign's runner alone: they execute
through :meth:`~repro.core.runner.TestRunner.probe`, which neither
counts the run nor folds it into the timeout EWMA, draws the fault
sub-plan the campaign's next run would draw, and is pinned to the
configured ``test_timeout``.  Triage therefore cannot perturb the
committed iteration stream.  A probe runs in the campaign process
unless the campaign is sandboxed or the signature is one whose run may
not return cleanly (``hang``, ``worker-killed``, ``oom``, ``cpu-cap``);
those probes fork a sandbox child (:func:`run_sandboxed`) so a probe
that spins or dies takes only the child with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..core.config import CompiConfig
from ..core.runner import (KIND_CPU, KIND_HANG, KIND_OOM, KIND_WORKER,
                           ErrorInfo, traceback_frames)
from .minimize import minimize_inputs
from .sandbox import ResourceLimits, run_sandboxed

if TYPE_CHECKING:  # pragma: no cover
    from ..core.compi import BugRecord
    from ..core.runner import TestRunner
    from ..core.testcase import InputSpec

ARTIFACT_FORMAT = "compi-repro-v1"

#: frames of the root-cause stack that feed the signature hash
_SIGNATURE_FRAMES = 3

#: bug kinds whose probes fork even in an unsandboxed campaign: their
#: runs spin until the watchdog or kill the executing process
_FORKED_KINDS = frozenset({KIND_HANG, KIND_WORKER, KIND_OOM, KIND_CPU})


def _message_type(message: str) -> str:
    """The exception-type-ish prefix of an error message.

    ``"ValueError: n must be positive (got -3)"`` and
    ``"ValueError: n must be positive (got -7)"`` are the same bug;
    cutting at the first ``(`` drops the variable payload while keeping
    the type and the fixed text.
    """
    return message.split("(", 1)[0].strip()


def crash_signature(error: ErrorInfo) -> str:
    """Stable identity of one crash: ``{kind}@{location}#{hash8}``.

    The hash covers the error kind, the message's type prefix, and the
    innermost root-cause frames as ``file:function`` — line numbers are
    dropped so an unrelated edit above the crash site does not split the
    signature, and chained tracebacks contribute only their root-cause
    block (via :func:`~repro.core.runner.traceback_frames`).
    """
    frames = traceback_frames(error.traceback or "")[-_SIGNATURE_FRAMES:]
    norm = [":".join(f.split(":")[::2]) for f in frames]  # drop line no.
    blob = "\x1f".join([error.kind, _message_type(error.message), *norm])
    digest = hashlib.sha1(blob.encode("utf-8")).hexdigest()[:8]
    return f"{error.kind}@{error.location or '?'}#{digest}"


def repro_dir(log_path: Union[str, Path]) -> Path:
    """Reproducer sidecar directory next to a campaign log
    (``campaign.jsonl`` → ``campaign.jsonl.repro/``)."""
    p = Path(log_path)
    return p.with_name(p.name + ".repro")


def signature_filename(signature: str) -> str:
    """A filesystem-safe artifact filename for one signature."""
    return re.sub(r"[^A-Za-z0-9._@#-]+", "-", signature) + ".json"


def load_artifacts(directory: Union[str, Path]) -> list[dict]:
    """All reproducer artifacts under a ``.repro`` directory, sorted by
    filename (malformed files are skipped, not fatal)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    artifacts = []
    for path in sorted(directory.glob("*.json")):
        try:
            with path.open("r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(obj, dict) and obj.get("format") == ARTIFACT_FORMAT:
            obj["_path"] = str(path)
            artifacts.append(obj)
    return artifacts


class CrashTriage:
    """Per-campaign signature dedup + reproducer emission.

    Driven by the collector on every *committed* bug, so its state is a
    pure function of the committed stream, and checkpointable for exact
    resume.
    """

    def __init__(self, runner: "TestRunner",
                 specs: dict[str, "InputSpec"], config: CompiConfig,
                 program_name: str):
        self.runner = runner
        self.specs = specs
        self.config = config
        self.program_name = program_name
        self.limits = ResourceLimits.from_config(config)
        #: signature -> occurrences among committed bugs
        self.seen: dict[str, int] = {}
        self.minimized = 0
        self.probes_spent = 0

    # ------------------------------------------------------------------
    def on_bug(self, bug: "BugRecord",
               log_path: Optional[Union[str, Path]]) -> Optional[Path]:
        """Account one committed bug; emit an artifact on a new signature.

        Returns the artifact path when one was written.  Without a
        campaign log there is nowhere durable to put reproducers, so
        only the dedup accounting runs.
        """
        signature = bug.signature or crash_signature(
            ErrorInfo(kind=bug.kind, global_rank=bug.global_rank,
                      message=bug.message, location=bug.location))
        first = signature not in self.seen
        self.seen[signature] = self.seen.get(signature, 0) + 1
        if not first or log_path is None:
            return None
        return self._emit(bug, signature, repro_dir(log_path))

    # ------------------------------------------------------------------
    def _probe(self, inputs: dict, bug: "BugRecord",
               signature: str) -> bool:
        """One re-execution: does ``inputs`` still crash the same way?
        Pinned to the configured timeout ceiling so probe results do
        not depend on the campaign's adaptive-timeout state."""
        from dataclasses import replace
        tc = replace(bug.testcase, inputs=dict(inputs))
        timeout = self.config.test_timeout
        if self.config.sandbox_enabled() or bug.kind in _FORKED_KINDS:
            outcome, death = run_sandboxed(self.runner, tc, timeout,
                                           self.limits)
            if death is not None:
                err = ErrorInfo(kind=death.kind, global_rank=-1,
                                message=death.message(self.limits))
            else:
                err = outcome.error
        else:
            err = self.runner.probe(tc, timeout)[0].error
        return err is not None and crash_signature(err) == signature

    def _emit(self, bug: "BugRecord", signature: str,
              directory: Path) -> Optional[Path]:
        """Minimize (budgeted) and write one reproducer artifact."""
        defaults = {name: spec.default for name, spec in self.specs.items()}
        minimized_inputs = dict(bug.testcase.inputs)
        probes = 0
        confirmed = False
        if self.config.minimize_crashes and self.config.minimize_probes > 0:
            try:
                # one probe to confirm the crash reproduces at all; a
                # flaky crash is recorded unminimized rather than
                # ddmin'd against noise
                confirmed = self._probe(minimized_inputs, bug, signature)
                probes += 1
                if confirmed:
                    minimized_inputs, spent = minimize_inputs(
                        minimized_inputs, defaults,
                        lambda d: self._probe(d, bug, signature),
                        self.config.minimize_probes - probes)
                    probes += spent
            except Exception:
                # minimization is a triage nicety; a broken probe must
                # never kill the campaign
                confirmed = False
        self.probes_spent += probes
        if confirmed:
            self.minimized += 1

        artifact = {
            "format": ARTIFACT_FORMAT,
            "program": self.program_name,
            "signature": signature,
            "kind": bug.kind,
            "message": bug.message,
            "location": bug.location,
            "global_rank": bug.global_rank,
            "iteration": bug.iteration,
            "nprocs": bug.testcase.setup.nprocs,
            "focus": bug.testcase.setup.focus,
            "inputs": dict(bug.testcase.inputs),
            # the schedule ID pins the message interleaving: `triage
            # replay` decodes it back onto the testcase so the replayed
            # run makes the same wildcard match decisions (minimization
            # probes above inherit it through dataclasses.replace)
            "schedule": bug.schedule,
            "pending_ops": [list(p) for p in bug.pending_ops],
            "minimized_inputs": dict(minimized_inputs),
            "removed_inputs": sorted(
                k for k in bug.testcase.inputs
                if minimized_inputs.get(k) != bug.testcase.inputs[k]),
            "minimized": confirmed,
            "probes": probes,
            "limits": {"max_rss_mb": self.limits.max_rss_mb,
                       "max_cpu_s": self.limits.max_cpu_s},
            "seed": self.config.seed,
        }
        try:
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / signature_filename(signature)
            tmp = target.with_name(target.name + ".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(artifact, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, target)
        except OSError:
            return None
        return target

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint slice: which signatures already have artifacts."""
        return {"seen": dict(self.seen), "minimized": self.minimized,
                "probes_spent": self.probes_spent}

    def load_state(self, state: dict) -> None:
        self.seen.update(state.get("seen", {}))
        self.minimized = state.get("minimized", self.minimized)
        self.probes_spent = state.get("probes_spent", self.probes_spent)
