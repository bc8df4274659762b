"""Text encodings shared by the journal and the snapshot format.

Everything the persistence layer stores is ASCII text inside a checksummed
frame: trivially inspectable, diffable, and byte-exact.  Timestamps use
``repr(float)`` (not the lossy ``%.6f`` of the human trace format) so a
message survives a journal round-trip bit-for-bit — replay equivalence is
checked with state fingerprints, which would notice any drift.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.net.prefix import Prefix
from repro.workload.updategen import UpdateKind, UpdateMessage

Route = Tuple[Prefix, int]


class CodecError(ValueError):
    """A persisted payload did not decode."""


# -- update messages ------------------------------------------------------


def encode_message(message: UpdateMessage) -> str:
    """One-line encoding: ``announce <prefix> <hop> <ts>`` / ``withdraw ...``."""
    if message.kind is UpdateKind.ANNOUNCE:
        return (
            f"announce {message.prefix} {message.next_hop} "
            f"{message.timestamp!r}"
        )
    return f"withdraw {message.prefix} {message.timestamp!r}"


def decode_message(text: str) -> UpdateMessage:
    """Inverse of :func:`encode_message`."""
    parts = text.split()
    try:
        if len(parts) == 4 and parts[0] == "announce":
            return UpdateMessage(
                UpdateKind.ANNOUNCE,
                Prefix.parse(parts[1]),
                int(parts[2]),
                float(parts[3]),
            )
        if len(parts) == 3 and parts[0] == "withdraw":
            return UpdateMessage(
                UpdateKind.WITHDRAW,
                Prefix.parse(parts[1]),
                None,
                float(parts[2]),
            )
    except ValueError as exc:
        raise CodecError(f"bad update payload {text!r}: {exc}") from exc
    raise CodecError(f"unrecognised update payload {text!r}")


# -- routes (snapshot JSON leaves) ----------------------------------------


def encode_routes(routes) -> List[List]:
    """Routes as JSON-ready ``[prefix, hop]`` pairs in address order."""
    return [
        [str(prefix), hop]
        for prefix, hop in sorted(routes, key=lambda route: route[0].sort_key())
    ]


def decode_routes(pairs: List[List]) -> List[Route]:
    """Inverse of :func:`encode_routes`."""
    try:
        return [(Prefix.parse(text), int(hop)) for text, hop in pairs]
    except (ValueError, TypeError) as exc:
        raise CodecError(f"bad route list: {exc}") from exc
