"""Message status and non-blocking request objects."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class Status:
    """Receive status: who sent the message and under which tag."""

    source: int
    tag: int


@dataclass
class Message:
    """An in-flight message inside a mailbox."""

    source: int
    tag: int
    payload: Any


class Request:
    """Handle for a non-blocking operation (``Isend``/``Irecv``).

    ``Isend`` requests complete immediately (the runtime buffers sends,
    i.e. every send is a buffered send — the common eager-protocol model).
    ``Irecv`` requests complete when a matching message is consumed; the
    payload is returned from :meth:`wait`.
    """

    def __init__(self, completer: Optional[Callable[..., tuple[Any, Status]]] = None,
                 payload: Any = None, status: Optional[Status] = None):
        self._completer = completer
        self._payload = payload
        self._status = status
        self._done = completer is None
        self._lock = threading.Lock()
        #: ``(mailbox, spec)`` of an ``Irecv``: what ``waitany`` waits on
        self.recv: Optional[tuple[Any, tuple]] = None

    @property
    def done(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None,
             _pin: Optional[tuple[int, int]] = None) -> Any:
        """Block until the operation completes; return the received payload
        (``None`` for send requests).

        ``_pin=(source, tag)`` narrows a wildcard receive to one concrete
        match — used by ``waitany`` to complete the request a schedule
        decision point chose.
        """
        with self._lock:
            if not self._done:
                assert self._completer is not None
                self._payload, self._status = self._completer(timeout, _pin)
                self._done = True
                self._completer = None
            return self._payload

    def test(self) -> bool:
        """Non-blocking completion probe.

        For receive requests this attempts a zero-timeout match; a ``True``
        result means :meth:`wait` will return immediately.
        """
        with self._lock:
            if self._done:
                return True
        try:
            self.wait(timeout=0.0)
            return True
        except TimeoutError:
            return False

    @property
    def status(self) -> Optional[Status]:
        return self._status


@dataclass
class CompletedRequest(Request):
    """A request that was already satisfied at creation time."""

    def __init__(self, payload: Any = None, status: Optional[Status] = None):
        super().__init__(completer=None, payload=payload, status=status)


def waitall(requests: list[Request]) -> list[Any]:
    """``MPI_Waitall``: block until every request completes; returns the
    received payloads in request order (``None`` for sends)."""
    return [r.wait() for r in requests]


def waitany(requests: list[Request]) -> tuple[int, Any]:
    """``MPI_Waitany``: return (index, payload) of one completed request.

    The lowest-indexed request that is complete, or can complete, wins;
    completed requests must be removed by the caller (as in MPI, where
    the request becomes inactive).  Otherwise the rank parks on one wait
    covering every pending ``Irecv``, so the deadlock diagnosis sees it.
    When every pending request is a wildcard ``Irecv`` and a schedule
    controller is attached, the whole call is one match decision point
    (see :mod:`repro.schedules`): the controller picks which request
    completes.
    """
    if not requests:
        raise ValueError("waitany on empty request list")
    for i, r in enumerate(requests):
        if r.done:
            return i, r.wait()
    # every pending request is an Irecv on the calling rank's mailbox
    mbox = requests[0].recv[0]
    k, pin = mbox.wait_match([r.recv[1] for r in requests], "Waitany")
    return k, requests[k].wait(_pin=pin)
