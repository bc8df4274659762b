"""Load loops and the answer oracle.

Two loops, both driven from pre-encoded payloads: a closed loop that
keeps ``window`` requests in flight on one connection (lookups or
update batches), and an open loop that sends update batches on a fixed
schedule and times each from the moment it was *due*.  Neither loop
inspects an answer: every response is kept with its completion time and
checked against the oracle after the clock has stopped.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.client import ServeClient

from inputs import LookupPool, Timeline


@dataclass
class Record:
    """One completed request."""

    done_at: float
    latency_s: float
    #: Index of the request's payload in its pool / stream.
    index: int
    frame_type: int
    payload: bytes
    #: Items (addresses / updates) verified correct; set by the oracle.
    good_items: int = 0


@dataclass
class Verdict:
    """What the oracle found in one list of records."""

    attempted: int = 0
    busy: int = 0
    errors: int = 0
    wrong: int = 0
    #: Positions judged against more than one table version (in-flight
    #: updates); the caller re-checks their addresses after the FLUSH.
    in_flight_items: int = 0
    details: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.busy + self.errors + self.wrong

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.busy += other.busy
        self.errors += other.errors
        self.wrong += other.wrong
        self.in_flight_items += other.in_flight_items
        self.details.extend(other.details[: max(0, 5 - len(self.details))])

    def note(self, message: str) -> None:
        if len(self.details) < 5:
            self.details.append(message)


Marks = Sequence[float]
OnMark = Callable[[int], None]


def closed_loop(
    client: ServeClient,
    msg_type: int,
    payloads: Sequence[bytes],
    window: int,
    first_index: int,
    stop_at: float,
    marks: Marks = (),
    on_mark: Optional[OnMark] = None,
    end_index: Optional[int] = None,
) -> List[Record]:
    """Keep ``window`` requests in flight until ``stop_at``.

    ``marks`` are times at which ``on_mark(i)`` runs (between two
    requests) — the window boundaries where CPU clocks are read.
    Payloads are sent from ``first_index`` on, cycling through the pool;
    with ``end_index`` the loop instead stops sending there and raises
    if that is before ``stop_at`` (an update stream must never replay).
    """
    records: List[Record] = []
    outstanding: Deque[Tuple[int, float]] = deque()
    count = len(payloads)
    index = first_index
    next_mark = 0
    clock = time.perf_counter
    send = client.send
    recv = client.recv
    stopping = False
    while True:
        while not stopping and len(outstanding) < window:
            if index == end_index:
                if stop_at != float("inf"):
                    raise RuntimeError(
                        f"stream ran dry at batch {index} before the window "
                        f"closed; generate more"
                    )
                stopping = True
                break
            slot = index % count
            # Clock first: a request is never stamped later than it left,
            # which keeps the oracle's version ranges conservative.
            outstanding.append((slot, clock()))
            send(msg_type, payloads[slot])
            index += 1
        if not outstanding:
            return records
        frame = recv()
        now = clock()
        slot, sent_at = outstanding.popleft()
        records.append(Record(now, now - sent_at, slot, frame.type, frame.payload))
        while next_mark < len(marks) and now >= marks[next_mark]:
            if on_mark is not None:
                on_mark(next_mark)
            next_mark += 1
        if now >= stop_at:
            stopping = True


@dataclass
class OpenLoopResult:
    records: List[Record]
    #: When each batch actually left, in stream order from ``first_index``.
    sent_at: List[float]
    #: How late that was, relative to the batch's due time.
    late_s: List[float]
    next_index: int


def open_loop_updates(
    host: str,
    port: int,
    payloads: Sequence[bytes],
    period_s: float,
    first_index: int,
    start_at: float,
    stop_at: float,
) -> OpenLoopResult:
    """Send one update batch every ``period_s``, whatever the server does.

    Latency is ack time minus *due* time, so a stall shows up in every
    request it delays.  One thread, one connection: ``select`` waits for
    whichever comes first, the next due time or an ack.
    """
    records: List[Record] = []
    sent_at: List[float] = []
    late: List[float] = []
    outstanding: Deque[Tuple[int, float]] = deque()
    index = first_index
    request_id = 0
    clock = time.perf_counter
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = 0
        while True:
            due = start_at + sent * period_s
            sending = due < stop_at
            now = clock()
            if sending and now >= due:
                if index >= len(payloads):
                    raise RuntimeError("open-loop update stream ran dry")
                sent_at.append(now)  # stamped before it leaves, as above
                late.append(now - due)
                sock.sendall(
                    protocol.encode_frame(
                        protocol.MSG_UPDATE, request_id, payloads[index]
                    )
                )
                outstanding.append((index, due))
                request_id += 1
                index += 1
                sent += 1
                continue
            if not sending and not outstanding:
                break
            wait = max(0.0, due - now) if sending else 30.0
            readable, _, _ = select.select([sock], [], [], wait)
            if not readable:
                if not sending:
                    raise TimeoutError("no update ack within 30 s")
                continue
            frame = protocol.read_frame_blocking(sock)
            if frame is None:
                raise protocol.ProtocolError("server closed the update connection")
            now = clock()
            slot, due_at = outstanding.popleft()
            records.append(Record(now, now - due_at, slot, frame.type, frame.payload))
    return OpenLoopResult(records, sent_at, late, index)


# -- the oracle ----------------------------------------------------------


def _answered(record: Record, ok_type: int, verdict: Verdict) -> bool:
    """True for the expected OK frame; BUSY, ERROR, REDIRECT and strays
    are counted as failures."""
    if record.frame_type == ok_type:
        return True
    if record.frame_type == protocol.MSG_BUSY:
        verdict.busy += 1
        verdict.note(f"BUSY({protocol.decode_text(record.payload)})")
    else:
        verdict.errors += 1
        verdict.note(f"request {record.index}: response type {record.frame_type:#x}")
    return False


VersionRange = Callable[[Record], Tuple[int, int]]


def verify_lookups(
    records: Sequence[Record],
    pool: LookupPool,
    timeline: Optional[Timeline] = None,
    version_range: Optional[VersionRange] = None,
) -> Verdict:
    """Check every lookup answer against the oracle.

    Without updates in flight that is one byte comparison per batch.
    With a ``timeline``, the positions whose answer the update stream
    changes are judged against every table version the request may have
    seen (``version_range``); all other positions are judged exactly.  A
    version at which the oracle has no route admits any answer:
    don't-care compression legitimately answers inside unrouted space.
    """
    verdict = Verdict(attempted=len(records))
    for record in records:
        if not _answered(record, protocol.MSG_LOOKUP_OK, verdict):
            continue
        expected = pool.expected[record.index]
        dynamic = timeline.dynamic[record.index] if timeline is not None else {}
        if not dynamic and record.payload == expected:
            record.good_items = len(expected) // 4
            continue
        if len(record.payload) != len(expected):
            verdict.wrong += 1
            verdict.note(f"batch {record.index}: {len(record.payload)} answer bytes")
            continue
        got = protocol.decode_hops(record.payload)
        want = protocol.decode_hops(expected)
        low, high = version_range(record) if dynamic else (0, 0)
        bad = None
        for position, answer in enumerate(got):
            changes = dynamic.get(position)
            if changes is None:
                if answer != want[position]:
                    bad = (position, [want[position]])
                    break
                continue
            allowed = Timeline.admissible(changes, low, high)
            verdict.in_flight_items += len(allowed) > 1
            if answer not in allowed and None not in allowed:
                bad = (position, allowed)
                break
        if bad is not None:
            verdict.wrong += 1
            verdict.note(
                f"batch {record.index}[{bad[0]}]: address "
                f"{pool.addresses[record.index][bad[0]]} answered "
                f"{got[bad[0]]}, oracle admits {bad[1]}"
            )
            continue
        record.good_items = len(got)
    return verdict


def verify_update_acks(records: Sequence[Record], batch_size: int) -> Verdict:
    """Every ack must accept and apply the whole batch, durably.

    Under ``--shards 2`` a boundary-spanning prefix is delivered to every
    covering shard, so the counts may exceed the batch size.
    """
    verdict = Verdict(attempted=len(records))
    for record in records:
        if not _answered(record, protocol.MSG_UPDATE_OK, verdict):
            continue
        ack = protocol.decode_update_ack(record.payload)
        if ack.shed or min(ack.accepted, ack.applied) < batch_size or not ack.durable:
            verdict.wrong += 1
            verdict.note(f"update batch {record.index}: {ack}")
            continue
        record.good_items = batch_size
    return verdict


# -- window arithmetic ---------------------------------------------------


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    position = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[position]


def window_rates(records: Sequence[Record], marks: Marks) -> List[float]:
    """Good items per second in each ``[marks[i], marks[i+1])`` window."""
    totals = [0] * (len(marks) - 1)
    for record in records:
        for window in range(len(totals)):
            if marks[window] <= record.done_at < marks[window + 1]:
                totals[window] += record.good_items
                break
    return [
        total / (marks[window + 1] - marks[window])
        for window, total in enumerate(totals)
    ]


def measured(records: Sequence[Record], marks: Marks) -> List[Record]:
    """The records that completed inside the measured windows."""
    return [r for r in records if marks[0] <= r.done_at < marks[-1]]
