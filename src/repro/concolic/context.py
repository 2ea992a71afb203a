"""Thread-local recorder ("sink") context.

Each simulated rank runs in its own thread; the rank's recorder — a heavy
concolic trace on the focus process, a light coverage recorder elsewhere —
is installed in thread-local storage for the duration of the rank's entry
point.  Symbolic proxies and instrumentation probes look it up here, which
is what lets one in-process job mix heavily- and lightly-instrumented
ranks (the paper's two-way instrumentation).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

_tls = threading.local()

#: The thread-local store itself.  The instrumented-probe fast paths
#: (:func:`repro.instrument.loader.make_probes`) read ``tls.sink``
#: directly — one ``getattr`` instead of a function call — because they
#: run once per branch evaluation of every instrumented target.  All
#: other code should go through the functions below.
tls = _tls


def current_sink() -> Optional[Any]:
    """The recorder attached to the calling thread, or ``None``."""
    return getattr(_tls, "sink", None)


def set_sink(sink: Optional[Any]) -> None:
    """Install (or clear, with None) the calling thread's recorder."""
    _tls.sink = sink


@contextmanager
def sink_scope(sink: Optional[Any]) -> Iterator[None]:
    """Install ``sink`` for the duration of a ``with`` block, then fold
    its probe hit arrays into its coverage map."""
    prev = current_sink()
    set_sink(sink)
    try:
        yield
    finally:
        set_sink(prev)
        if sink is not None:
            sink.flush()
