"""Message matching: posted-receive and unexpected-message queues.

Each (communicator, destination rank) pair owns one :class:`MatchQueue`.
A message matches a posted receive when their *contexts* are equal (user
point-to-point traffic and each collective invocation live in disjoint
contexts, like MPI context ids) and the receive's source/tag either
equal the message's or are wildcards.  Matching is FIFO on both sides,
per the MPI non-overtaking rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional

from repro.simmpi.datatypes import Buffer
from repro.simmpi.errorsim import SimError

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "MatchQueue"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True)
class Message:
    """An in-flight (or delivered) message.

    ``src``/``dst`` are ranks local to the communicator; ``arrival`` is
    the virtual time the payload is available at the destination.
    (``slots=True``: one Message is allocated per simulated message —
    skipping the per-instance ``__dict__`` is measurable.)
    """

    src: int
    dst: int
    tag: int
    context: Hashable
    buf: Buffer
    arrival: float
    category: str = "p2p"
    #: Send sequence number in a replay recording (-1: not recorded).
    rseq: int = field(default=-1, compare=False, repr=False)

    @property
    def payload(self) -> Any:
        return self.buf.payload

    @property
    def nbytes(self) -> int:
        return self.buf.nbytes


class MatchQueue:
    """Posted receives and unexpected messages for one (comm, dst).

    Both queues are plain lists: they rarely hold more than a few
    entries, and a world keeps one queue per (communicator, rank), where
    an empty ``deque`` would cost ~380 B each.  :meth:`post` and
    :meth:`deliver` are the one copy of matching: ``Communicator._irecv``
    posts every receive and ``Engine._materialize`` delivers every
    message, so the benchmark ledger's per-message match cost prices
    code every simulation runs.
    """

    __slots__ = ("_posted", "_unexpected")

    def __init__(self) -> None:
        self._posted: List[Any] = []  # RecvRequest objects
        self._unexpected: List[Message] = []

    def deliver(self, msg: Message) -> Optional[Any]:
        """A message arrived: bind it to the oldest matching receive.

        Returns the matched receive request (already bound), or ``None``
        if the message was queued as unexpected.  The match test is
        inlined, here and in :meth:`post` / :meth:`probe`: this runs once
        per simulated message, usually against a one-entry queue.
        """
        posted = self._posted
        if posted:
            ctx, src, tag = msg.context, msg.src, msg.tag
            for i, req in enumerate(posted):
                if (req.context == ctx
                        and req.source in (ANY_SOURCE, src)
                        and req.tag in (ANY_TAG, tag)):
                    del posted[i]
                    # RecvRequest.bind, inlined (once per message).
                    if req._msg is not None:
                        raise SimError("receive request bound twice")
                    req._msg = msg
                    return req
        self._unexpected.append(msg)
        return None

    def post(self, req: Any) -> bool:
        """A receive was posted: bind the oldest matching unexpected
        message, else enqueue the receive.  Returns True iff bound."""
        unexpected = self._unexpected
        if unexpected:
            ctx, src, tag = req.context, req.source, req.tag
            for i, msg in enumerate(unexpected):
                if (msg.context == ctx
                        and src in (ANY_SOURCE, msg.src)
                        and tag in (ANY_TAG, msg.tag)):
                    del unexpected[i]
                    # RecvRequest.bind, inlined (once per message).
                    if req._msg is not None:
                        raise SimError("receive request bound twice")
                    req._msg = msg
                    return True
        self._posted.append(req)
        return False

    def probe(self, source: int, tag: int, context: Hashable) -> Optional[Message]:
        """First queued unexpected message matching (source, tag,
        context), left in the queue."""
        for msg in self._unexpected:
            if (msg.context == context
                    and source in (ANY_SOURCE, msg.src)
                    and tag in (ANY_TAG, msg.tag)):
                return msg
        return None

    @property
    def n_posted(self) -> int:
        return len(self._posted)
