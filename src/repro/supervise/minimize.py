"""ddmin input minimization for crash triage.

A crashing test case carries the full symbolic input vector the solver
happened to produce — most coordinates are irrelevant to the crash.
:func:`minimize_inputs` delta-debugs the *set of inputs that differ from
the target's declared defaults* down to a 1-minimal subset: removing any
single remaining input stops the crash from reproducing.  Inputs outside
the subset are reset to their spec defaults, so the reproducer reads as
"the defaults, plus these few decisive values".

The probe predicate is supplied by the caller.  Triage probes execute
through ``TestRunner.probe``, in the campaign process or in a forked
sandbox child (see :mod:`repro.supervise.triage`); either way they
leave the runner's run counter, timeout EWMA and kill accounting alone.
Every probe counts against a hard budget — minimization is a triage
nicety and must never stall the campaign.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class _Budget:
    """Countdown of probe invocations; ddmin stops cleanly at zero."""

    def __init__(self, probes: int):
        self.remaining = max(0, probes)
        self.spent = 0

    def take(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.spent += 1
        return True


def ddmin(items: Sequence[T], test: Callable[[list[T]], bool],
          budget: int) -> tuple[list[T], int]:
    """Zeller's ddmin: a 1-minimal sublist of ``items`` still failing.

    ``test(subset)`` returns True when the subset still reproduces the
    failure.  ``items`` itself is assumed to reproduce (the caller
    verified that before paying for minimization).  Returns the
    minimized list and the number of probes spent; an exhausted budget
    returns the best (smallest still-failing) list found so far.
    """
    current = list(items)
    budget_ = _Budget(budget)
    n = 2
    while len(current) >= 2 and n <= len(current):
        chunk = (len(current) + n - 1) // n
        subsets = [current[i:i + chunk]
                   for i in range(0, len(current), chunk)]
        reduced = False
        # try each subset alone, then each complement
        candidates = list(subsets)
        if n > 2:
            candidates += [[x for x in current if x not in subset]
                           for subset in subsets]
        for candidate in candidates:
            if not candidate or len(candidate) == len(current):
                continue
            if not budget_.take():
                return current, budget_.spent
            if test(candidate):
                current = candidate
                n = max(2, min(n, len(current)))
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current, budget_.spent


def minimize_inputs(inputs: dict, defaults: dict,
                    reproduces: Callable[[dict], bool],
                    budget: int) -> tuple[dict, int]:
    """Minimize a crashing input dict against the spec defaults.

    The delta is the set of keys whose value differs from ``defaults``;
    a key with no default has nothing to reset to and always stays at
    its crashing value.  ``reproduces(d)`` probes a full candidate input
    dict.  Returns the minimized dict and the probes spent.  The delta
    is sorted, so the result is deterministic for a deterministic
    predicate.
    """
    delta = sorted(k for k in inputs
                   if k in defaults and inputs[k] != defaults[k])

    def build(kept: list) -> dict:
        kept_set = set(kept)
        return {k: (inputs[k] if k in kept_set or k not in defaults
                    else defaults[k])
                for k in inputs}

    if not delta:
        return dict(inputs), 0
    kept, spent = ddmin(delta, lambda sub: reproduces(build(sub)), budget)
    return build(kept), spent
