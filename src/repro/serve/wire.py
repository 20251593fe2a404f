"""Compact binary framing for the serving wire (``repro.serve.wire``).

At edge sample rates the line-JSON protocol spends more time boxing floats
and scanning for newlines than the model spends scoring -- serialization
dominates the ingest path.  This module defines the binary alternative: a
fixed 10-byte header followed by a struct-packed, op-specific payload, with
pushed samples travelling as raw little-endian float32 blocks (many samples
per frame, so one syscall and one ack amortise over a whole burst).

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic     0xAB 'V' 'R' 'D'  (first byte is not valid JSON,
                            so the first byte of a connection negotiates the
                            protocol: 0xAB means binary, anything else means
                            line-delimited JSON)
    4       1     version   currently 1
    5       1     op        frame type (below)
    6       4     length    payload byte count (<= MAX_PAYLOAD)
    10      ...   payload   op-specific

Request ops (client -> server) mirror the JSON protocol one to one::

    0x01 OPEN            stream id + optional max_samples + optional tenant
    0x02 PUSH            stream id + (n_samples, n_channels) float32 block
    0x03 CLOSE           stream id
    0x04 STATS           empty
    0x05 PING            empty
    0x06 SHUTDOWN        empty
    0x07 METRICS         empty (Prometheus text exposition snapshot)
    0x08 TRACE           empty (Chrome trace JSON snapshot)
    0x09 SNAPSHOT        empty (rich JSON state: counters + histograms)
    0x0A EXPORT_SESSION  stream id (drain + detach for cluster handoff)
    0x0B IMPORT_SESSION  tenant + base64 state blob (attach a handoff)

Reply ops (server -> client; one reply per request, in request order)::

    0x81 OPEN_ACK            window, incremental flag, optional threshold
    0x82 PUSH_ACK            samples accepted
    0x83 CLOSE_ACK           session summary counters
    0x84 STATS_ACK           service counters + queue-delay p99
    0x85 PING_ACK            empty
    0x86 SHUTDOWN_ACK        empty
    0x87 METRICS_ACK         <I-length-prefixed UTF-8 Prometheus text
    0x88 TRACE_ACK           <I-length-prefixed UTF-8 Chrome trace JSON
    0x89 SNAPSHOT_ACK        <I-length-prefixed UTF-8 JSON snapshot
    0x8A EXPORT_SESSION_ACK  stream id, tenant, base64 state blob
    0x8B IMPORT_SESSION_ACK  stream id
    0xE1 ALARM_EVENT         unsolicited: stream id, index, score, threshold
    0xEE ERROR               echoed request op + UTF-8 message

The OPEN tenant key and the SNAPSHOT/EXPORT/IMPORT ops exist for
``repro.cluster``: the shard router opens tenant-qualified sessions on its
workers and re-homes live sessions between them when the worker ring
changes.  Session state blobs travel as base64 text (they are control-plane
payloads, not hot-path data) and handoff ops are refused by servers unless
explicitly enabled.  An OPEN frame without a tenant is byte-identical to
the pre-cluster encoding, so old clients and new servers interoperate.

Strings (stream ids, error messages) are ``<H``-length-prefixed UTF-8.
Sample blocks are C-ordered ``<f4``; the codec round-trips them
*bit-identically* (NaN payload bits, infinities and subnormals included --
the property suite in ``tests/test_serve/test_wire_properties.py`` holds it
to that).  Note the serving data model is float64: producers that need
exact float64 parity with the JSON protocol must push values that are
exactly representable in float32 (the wire is explicitly a compact,
reduced-precision ingest path).

:class:`FrameDecoder` is the streaming decoder: feed it bytes in whatever
chunks the transport delivers (frames may be coalesced or split
arbitrarily) and iterate complete frames out.  Malformed input raises a
:class:`WireProtocolError` subclass; framing corruption is not resyncable,
so servers answer with one ERROR frame and close the connection.

Example -- encode, then round-trip through an arbitrarily chunked stream:

>>> import numpy as np
>>> frame = Push("press-3", np.ones((2, 3), dtype=np.float32))
>>> data = encode(frame)
>>> data[:4] == MAGIC and data[5] == OP_PUSH
True
>>> decoded, consumed = decode_frame(data)
>>> decoded == frame and consumed == len(data)
True
>>> decoder = FrameDecoder()
>>> blob = encode(Open("press-3")) + encode(Ping())
>>> [type(f).__name__ for f in decoder.drain(blob[:7])]   # header split
[]
>>> [type(f).__name__ for f in decoder.drain(blob[7:])]
['Open', 'Ping']
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, List, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "MAGIC", "VERSION", "HEADER", "MAX_PAYLOAD",
    "OP_OPEN", "OP_PUSH", "OP_CLOSE", "OP_STATS", "OP_PING", "OP_SHUTDOWN",
    "OP_METRICS", "OP_TRACE", "OP_SNAPSHOT", "OP_EXPORT_SESSION",
    "OP_IMPORT_SESSION",
    "OP_OPEN_ACK", "OP_PUSH_ACK", "OP_CLOSE_ACK", "OP_STATS_ACK",
    "OP_PING_ACK", "OP_SHUTDOWN_ACK", "OP_METRICS_ACK", "OP_TRACE_ACK",
    "OP_SNAPSHOT_ACK", "OP_EXPORT_SESSION_ACK", "OP_IMPORT_SESSION_ACK",
    "OP_ALARM_EVENT", "OP_ERROR",
    "WireProtocolError", "BadMagicError", "BadVersionError", "BadOpError",
    "FrameTooLargeError", "CorruptPayloadError",
    "Open", "Push", "Close", "Stats", "Ping", "Shutdown", "Metrics", "Trace",
    "Snapshot", "ExportSession", "ImportSession",
    "OpenAck", "PushAck", "CloseAck", "StatsAck", "PingAck", "ShutdownAck",
    "MetricsAck", "TraceAck", "SnapshotAck", "ExportSessionAck",
    "ImportSessionAck", "AlarmEvent", "ErrorReply",
    "Frame", "encode", "decode_frame", "FrameDecoder",
]

#: First byte 0xAB cannot start a JSON document, so one peeked byte decides
#: the protocol of a fresh connection.
MAGIC = b"\xabVRD"
VERSION = 1
HEADER = struct.Struct("<4sBBI")          # magic, version, op, payload length
#: Payload byte cap -- bounds both decoder buffering on hostile length
#: prefixes and the largest sample block one PUSH frame may carry.
MAX_PAYLOAD = 1 << 20

OP_OPEN = 0x01
OP_PUSH = 0x02
OP_CLOSE = 0x03
OP_STATS = 0x04
OP_PING = 0x05
OP_SHUTDOWN = 0x06
OP_METRICS = 0x07
OP_TRACE = 0x08
OP_SNAPSHOT = 0x09
OP_EXPORT_SESSION = 0x0A
OP_IMPORT_SESSION = 0x0B
OP_OPEN_ACK = 0x81
OP_PUSH_ACK = 0x82
OP_CLOSE_ACK = 0x83
OP_STATS_ACK = 0x84
OP_PING_ACK = 0x85
OP_SHUTDOWN_ACK = 0x86
OP_METRICS_ACK = 0x87
OP_TRACE_ACK = 0x88
OP_SNAPSHOT_ACK = 0x89
OP_EXPORT_SESSION_ACK = 0x8A
OP_IMPORT_SESSION_ACK = 0x8B
OP_ALARM_EVENT = 0xE1
OP_ERROR = 0xEE

_STR_LEN = struct.Struct("<H")
_TEXT_LEN = struct.Struct("<I")           # long UTF-8 text (metrics/trace)
_OPEN_TAIL = struct.Struct("<q")          # max_samples, -1 = None
_PUSH_HEAD = struct.Struct("<IH")         # n_samples, n_channels
_OPEN_ACK = struct.Struct("<IBBd")        # window, incremental, has_thr, thr
_PUSH_ACK = struct.Struct("<I")           # samples accepted
_CLOSE_ACK = struct.Struct("<4Q")         # pushed, scored, dropped, adaptation
_STATS_ACK = struct.Struct("<5Qdd")       # counters + mean batch + p99 delay
_ALARM = struct.Struct("<QdBd")           # index, score, has_thr, thr
_ERROR_HEAD = struct.Struct("<B")         # echoed request op (0 = unknown)


class WireProtocolError(ValueError):
    """Malformed binary wire input (framing or payload structure)."""


class BadMagicError(WireProtocolError):
    """The frame does not start with the protocol magic."""


class BadVersionError(WireProtocolError):
    """The frame carries an unsupported protocol version."""


class BadOpError(WireProtocolError):
    """The frame carries an unknown op code."""


class FrameTooLargeError(WireProtocolError):
    """The length prefix exceeds :data:`MAX_PAYLOAD`."""


class CorruptPayloadError(WireProtocolError):
    """The payload does not parse as its op's declared structure."""


# --------------------------------------------------------------------------- #
# String / float-block helpers
# --------------------------------------------------------------------------- #
def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError(f"string too long for the wire ({len(data)} bytes)")
    return _STR_LEN.pack(len(data)) + data


def _unpack_str(payload: bytes, offset: int) -> Tuple[str, int]:
    if offset + _STR_LEN.size > len(payload):
        raise CorruptPayloadError("truncated string length prefix")
    (length,) = _STR_LEN.unpack_from(payload, offset)
    offset += _STR_LEN.size
    if offset + length > len(payload):
        raise CorruptPayloadError(
            f"string length {length} exceeds the remaining payload"
        )
    try:
        text = payload[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as error:
        raise CorruptPayloadError(f"string is not valid UTF-8: {error}") \
            from error
    return text, offset + length


def _pack_text(text: str) -> bytes:
    """``<I``-length-prefixed UTF-8 for long documents (metrics, traces).

    The frame-level :data:`MAX_PAYLOAD` cap still applies at encode time,
    so the 32-bit prefix never admits unbounded buffering.
    """
    data = text.encode("utf-8")
    return _TEXT_LEN.pack(len(data)) + data


def _unpack_text(payload: bytes, offset: int) -> Tuple[str, int]:
    if offset + _TEXT_LEN.size > len(payload):
        raise CorruptPayloadError("truncated text length prefix")
    (length,) = _TEXT_LEN.unpack_from(payload, offset)
    offset += _TEXT_LEN.size
    if offset + length > len(payload):
        raise CorruptPayloadError(
            f"text length {length} exceeds the remaining payload"
        )
    try:
        text = payload[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as error:
        raise CorruptPayloadError(f"text is not valid UTF-8: {error}") \
            from error
    return text, offset + length


def _as_float32_block(samples) -> np.ndarray:
    block = np.asarray(samples)
    if block.ndim == 1:
        block = block[None, :]
    if block.ndim != 2:
        raise ValueError(
            f"sample blocks must be (n_samples, n_channels), "
            f"got ndim={block.ndim}"
        )
    return np.ascontiguousarray(block, dtype="<f4")


# --------------------------------------------------------------------------- #
# Frame types
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Open:
    """Open a scoring session (``max_samples=None`` = unbounded).

    ``tenant`` selects the packaged artifact on a multi-tenant cluster
    worker; it is encoded as an *optional trailing* string so a tenant-less
    OPEN stays byte-identical to the pre-cluster wire format (and old
    frames decode on new servers, and vice versa).
    """

    stream: str
    max_samples: Optional[int] = None
    tenant: Optional[str] = None

    op = OP_OPEN

    def encode_payload(self) -> bytes:
        max_samples = -1 if self.max_samples is None else int(self.max_samples)
        payload = _pack_str(self.stream) + _OPEN_TAIL.pack(max_samples)
        if self.tenant is not None:
            payload += _pack_str(self.tenant)
        return payload

    @classmethod
    def decode_payload(cls, payload: bytes) -> "Open":
        stream, offset = _unpack_str(payload, 0)
        if offset + _OPEN_TAIL.size > len(payload):
            raise CorruptPayloadError("OPEN payload has the wrong size")
        (max_samples,) = _OPEN_TAIL.unpack_from(payload, offset)
        offset += _OPEN_TAIL.size
        tenant = None
        if offset != len(payload):
            tenant, offset = _unpack_str(payload, offset)
            if offset != len(payload):
                raise CorruptPayloadError("OPEN payload has trailing bytes")
        return cls(stream, None if max_samples < 0 else max_samples, tenant)


class Push:
    """A batched sample block: ``samples`` is ``(n_samples, n_channels)``.

    Not a frozen dataclass because ndarray equality needs bitwise
    semantics: two pushes are equal iff their ids match and their float32
    blocks are byte-identical (NaN payloads included).
    """

    op = OP_PUSH
    __slots__ = ("stream", "samples")

    def __init__(self, stream: str, samples) -> None:
        self.stream = stream
        self.samples = _as_float32_block(samples)

    def __repr__(self) -> str:
        return (f"Push(stream={self.stream!r}, "
                f"samples=<{self.samples.shape[0]}x{self.samples.shape[1]} f4>)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Push):
            return NotImplemented
        return (self.stream == other.stream
                and self.samples.shape == other.samples.shape
                and self.samples.tobytes() == other.samples.tobytes())

    def encode_payload(self) -> bytes:
        n_samples, n_channels = self.samples.shape
        return (_pack_str(self.stream)
                + _PUSH_HEAD.pack(n_samples, n_channels)
                + self.samples.tobytes())

    @classmethod
    def decode_payload(cls, payload: bytes) -> "Push":
        stream, offset = _unpack_str(payload, 0)
        if offset + _PUSH_HEAD.size > len(payload):
            raise CorruptPayloadError("truncated PUSH block header")
        n_samples, n_channels = _PUSH_HEAD.unpack_from(payload, offset)
        offset += _PUSH_HEAD.size
        expected = n_samples * n_channels * 4
        if len(payload) - offset != expected:
            raise CorruptPayloadError(
                f"PUSH declares {n_samples}x{n_channels} float32 samples "
                f"({expected} bytes) but carries {len(payload) - offset}"
            )
        block = np.frombuffer(payload, dtype="<f4", count=n_samples * n_channels,
                              offset=offset).reshape(n_samples, n_channels)
        push = cls.__new__(cls)
        push.stream = stream
        push.samples = block
        return push


def _payloadless(name: str, op_code: int):
    """Build a frame type whose payload is empty (STATS/PING/SHUTDOWN...)."""

    @classmethod
    def decode_payload(cls, payload: bytes):
        if payload:
            raise CorruptPayloadError(
                f"{name} frames carry no payload, got {len(payload)} bytes"
            )
        return cls()

    return dataclass(frozen=True)(type(name, (), {
        "op": op_code,
        "encode_payload": lambda self: b"",
        "decode_payload": decode_payload,
        "__annotations__": {},
    }))


def _strings(name: str, op_code: int, *fields: str, text: Optional[str] = None,
             doc: Optional[str] = None):
    """Build a frame type whose payload is string fields, in order.

    Each of ``fields`` is ``<H``-length-prefixed; ``text``, when given,
    names one last ``<I``-prefixed field for long documents (metrics,
    traces, snapshots, session state blobs).
    """
    label = re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()
    codecs = [(field, _pack_str, _unpack_str) for field in fields]
    if text is not None:
        codecs.append((text, _pack_text, _unpack_text))
    packers = [(attrgetter(field), pack) for field, pack, _ in codecs]

    def encode_payload(self) -> bytes:
        return b"".join(pack(value_of(self)) for value_of, pack in packers)

    @classmethod
    def decode_payload(cls, payload: bytes):
        values, offset = [], 0
        for _, _, unpack in codecs:
            value, offset = unpack(payload, offset)
            values.append(value)
        if offset != len(payload):
            raise CorruptPayloadError(f"{label} payload has trailing bytes")
        return cls(*values)

    return dataclass(frozen=True)(type(name, (), {
        "__doc__": doc,
        "op": op_code,
        "encode_payload": encode_payload,
        "decode_payload": decode_payload,
        "__annotations__": {field: str for field, _, _ in codecs},
    }))


Close = _strings("Close", OP_CLOSE, "stream")
ExportSession = _strings(
    "ExportSession", OP_EXPORT_SESSION, "stream",
    doc="Drain and detach one live session for a cluster handoff.")
ImportSessionAck = _strings(
    "ImportSessionAck", OP_IMPORT_SESSION_ACK, "stream",
    doc="Confirms the stream id now served by the importing worker.")
ExportSessionAck = _strings(
    "ExportSessionAck", OP_EXPORT_SESSION_ACK, "stream", "tenant",
    text="state",
    doc="""The detached session: tenant key + base64 state blob.

    The blob stays base64 text end to end (message layer included) --
    handoffs are rare control-plane events, so the 4/3 size tax buys
    strict-JSON transparency on the line protocol and in logs.
    """)
ImportSession = _strings(
    "ImportSession", OP_IMPORT_SESSION, "tenant", text="state",
    doc="Attach an exported session blob under the given tenant.")
SnapshotAck = _strings(
    "SnapshotAck", OP_SNAPSHOT_ACK, text="json_text",
    doc="""Rich service state as JSON text (counters, histogram states).

    Unlike STATS_ACK's fixed struct, the snapshot schema can grow without
    a wire version bump; :class:`repro.cluster.ClusterStats` merges these
    across workers.
    """)
MetricsAck = _strings(
    "MetricsAck", OP_METRICS_ACK, text="text",
    doc="Prometheus text exposition snapshot (UTF-8, format 0.0.4).")
TraceAck = _strings(
    "TraceAck", OP_TRACE_ACK, text="json_text",
    doc="""Chrome trace snapshot, carried as its strict-JSON text.

    Kept as text (not re-parsed) so the frame round-trips byte-exactly
    and a dump can be written straight to a ``.json`` file for Perfetto.
    A full default ring (4096 events) serialises well under
    :data:`MAX_PAYLOAD`; far larger rings should be dumped through
    ``--trace-out`` or ``GET /trace`` instead, which have no frame cap.
    """)
Stats = _payloadless("Stats", OP_STATS)
Ping = _payloadless("Ping", OP_PING)
Shutdown = _payloadless("Shutdown", OP_SHUTDOWN)
Metrics = _payloadless("Metrics", OP_METRICS)
Trace = _payloadless("Trace", OP_TRACE)
Snapshot = _payloadless("Snapshot", OP_SNAPSHOT)
PingAck = _payloadless("PingAck", OP_PING_ACK)
ShutdownAck = _payloadless("ShutdownAck", OP_SHUTDOWN_ACK)


@dataclass(frozen=True)
class OpenAck:
    stream: str
    window: int
    incremental: bool
    threshold: Optional[float]

    op = OP_OPEN_ACK

    def encode_payload(self) -> bytes:
        has_threshold = self.threshold is not None
        return _pack_str(self.stream) + _OPEN_ACK.pack(
            self.window, int(self.incremental), int(has_threshold),
            self.threshold if has_threshold else 0.0)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "OpenAck":
        stream, offset = _unpack_str(payload, 0)
        if offset + _OPEN_ACK.size != len(payload):
            raise CorruptPayloadError("OPEN_ACK payload has the wrong size")
        window, incremental, has_threshold, threshold = \
            _OPEN_ACK.unpack_from(payload, offset)
        return cls(stream, window, bool(incremental),
                   threshold if has_threshold else None)


@dataclass(frozen=True)
class PushAck:
    accepted: int

    op = OP_PUSH_ACK

    def encode_payload(self) -> bytes:
        return _PUSH_ACK.pack(self.accepted)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "PushAck":
        if len(payload) != _PUSH_ACK.size:
            raise CorruptPayloadError("PUSH_ACK payload has the wrong size")
        return cls(*_PUSH_ACK.unpack(payload))


@dataclass(frozen=True)
class CloseAck:
    stream: str
    samples_pushed: int
    samples_scored: int
    samples_dropped: int
    adaptation_events: int

    op = OP_CLOSE_ACK

    def encode_payload(self) -> bytes:
        return _pack_str(self.stream) + _CLOSE_ACK.pack(
            self.samples_pushed, self.samples_scored, self.samples_dropped,
            self.adaptation_events)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "CloseAck":
        stream, offset = _unpack_str(payload, 0)
        if offset + _CLOSE_ACK.size != len(payload):
            raise CorruptPayloadError("CLOSE_ACK payload has the wrong size")
        return cls(stream, *_CLOSE_ACK.unpack_from(payload, offset))


@dataclass(frozen=True)
class StatsAck:
    live_sessions: int
    samples_pushed: int
    samples_scored: int
    samples_dropped: int
    flushes: int
    mean_batch_size: float
    queue_delay_p99_s: float     #: NaN when nothing has been scored yet

    op = OP_STATS_ACK

    def encode_payload(self) -> bytes:
        return _STATS_ACK.pack(
            self.live_sessions, self.samples_pushed, self.samples_scored,
            self.samples_dropped, self.flushes, self.mean_batch_size,
            self.queue_delay_p99_s)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "StatsAck":
        if len(payload) != _STATS_ACK.size:
            raise CorruptPayloadError("STATS_ACK payload has the wrong size")
        return cls(*_STATS_ACK.unpack(payload))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatsAck):
            return NotImplemented
        # NaN-tolerant equality so decode(encode(x)) == x holds for the
        # zero-samples p99 sentinel too.
        def same(a: float, b: float) -> bool:
            return a == b or (np.isnan(a) and np.isnan(b))

        return (
            (self.live_sessions, self.samples_pushed, self.samples_scored,
             self.samples_dropped, self.flushes)
            == (other.live_sessions, other.samples_pushed,
                other.samples_scored, other.samples_dropped, other.flushes)
            and same(self.mean_batch_size, other.mean_batch_size)
            and same(self.queue_delay_p99_s, other.queue_delay_p99_s)
        )

    __hash__ = None


@dataclass(frozen=True)
class AlarmEvent:
    """A pushed alarm notification.

    ``fingerprint`` identifies the artifact that scored the alarming
    sample; like :attr:`Open.tenant` it is an *optional trailing* string,
    so fingerprint-less events stay byte-identical to the pre-lifecycle
    wire format (old frames decode on new clients, and vice versa).
    """

    stream: str
    index: int
    score: float
    threshold: Optional[float]
    fingerprint: Optional[str] = None

    op = OP_ALARM_EVENT

    def encode_payload(self) -> bytes:
        has_threshold = self.threshold is not None
        payload = _pack_str(self.stream) + _ALARM.pack(
            self.index, self.score, int(has_threshold),
            self.threshold if has_threshold else 0.0)
        if self.fingerprint is not None:
            payload += _pack_str(self.fingerprint)
        return payload

    @classmethod
    def decode_payload(cls, payload: bytes) -> "AlarmEvent":
        stream, offset = _unpack_str(payload, 0)
        if offset + _ALARM.size > len(payload):
            raise CorruptPayloadError("ALARM_EVENT payload has the wrong size")
        index, score, has_threshold, threshold = \
            _ALARM.unpack_from(payload, offset)
        offset += _ALARM.size
        fingerprint = None
        if offset != len(payload):
            fingerprint, offset = _unpack_str(payload, offset)
            if offset != len(payload):
                raise CorruptPayloadError(
                    "ALARM_EVENT payload has trailing bytes")
        return cls(stream, index, score,
                   threshold if has_threshold else None, fingerprint)


@dataclass(frozen=True)
class ErrorReply:
    """Structured error: ``request_op`` echoes the offending frame's op.

    ``request_op`` 0 means the op could not be determined (framing-level
    corruption); after such an error the server closes the connection
    because the byte stream cannot be resynchronised.
    """

    request_op: int
    message: str

    op = OP_ERROR

    def encode_payload(self) -> bytes:
        data = self.message.encode("utf-8")[:0xFFFF]
        return _ERROR_HEAD.pack(self.request_op) + _STR_LEN.pack(len(data)) \
            + data

    @classmethod
    def decode_payload(cls, payload: bytes) -> "ErrorReply":
        if len(payload) < _ERROR_HEAD.size:
            raise CorruptPayloadError("truncated ERROR payload")
        (request_op,) = _ERROR_HEAD.unpack_from(payload, 0)
        message, offset = _unpack_str(payload, _ERROR_HEAD.size)
        if offset != len(payload):
            raise CorruptPayloadError("ERROR payload has trailing bytes")
        return cls(request_op, message)


_FRAME_TYPES: Tuple[Type, ...] = (
    Open, Push, Close, Stats, Ping, Shutdown, Metrics, Trace,
    Snapshot, ExportSession, ImportSession,
    OpenAck, PushAck, CloseAck, StatsAck, PingAck, ShutdownAck,
    MetricsAck, TraceAck, SnapshotAck, ExportSessionAck, ImportSessionAck,
    AlarmEvent, ErrorReply,
)
Frame = Union[_FRAME_TYPES]
_DECODERS = {frame_type.op: frame_type for frame_type in _FRAME_TYPES}


# --------------------------------------------------------------------------- #
# Encode / decode
# --------------------------------------------------------------------------- #
def encode(frame: Frame) -> bytes:
    """Serialise one frame (header + payload) to bytes."""
    payload = frame.encode_payload()
    if len(payload) > MAX_PAYLOAD:
        raise FrameTooLargeError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD}); split the sample block into smaller frames"
        )
    return HEADER.pack(MAGIC, VERSION, frame.op, len(payload)) + payload


def decode_frame(buffer: Union[bytes, bytearray, memoryview],
                 offset: int = 0) -> Tuple[Optional[Frame], int]:
    """Decode one frame at ``offset``; return ``(frame, next_offset)``.

    Returns ``(None, offset)`` when the buffer holds only part of the
    frame (read more bytes and retry); raises a :class:`WireProtocolError`
    subclass when what *is* there is malformed.  The oversized-length check
    runs as soon as the header is complete, so a hostile length prefix can
    never make the caller buffer gigabytes.
    """
    buffer = memoryview(buffer)
    available = len(buffer) - offset
    if available < 1:
        return None, offset
    # Validate the magic byte-by-byte as it arrives: corruption is
    # detectable from the very first byte, before a full header is read.
    prefix = bytes(buffer[offset:offset + min(available, len(MAGIC))])
    if prefix != MAGIC[:len(prefix)]:
        raise BadMagicError(
            f"bad frame magic {prefix!r} (expected {MAGIC!r}); "
            f"this does not look like the repro binary wire protocol"
        )
    if available < HEADER.size:
        return None, offset
    magic, version, op, length = HEADER.unpack_from(buffer, offset)
    if version != VERSION:
        raise BadVersionError(
            f"unsupported wire protocol version {version} "
            f"(this server speaks version {VERSION})"
        )
    if op not in _DECODERS:
        raise BadOpError(f"unknown op code 0x{op:02X}")
    if length > MAX_PAYLOAD:
        raise FrameTooLargeError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD "
            f"({MAX_PAYLOAD})"
        )
    end = offset + HEADER.size + length
    if len(buffer) < end:
        return None, offset
    payload = bytes(buffer[offset + HEADER.size:end])
    return _DECODERS[op].decode_payload(payload), end


class FrameDecoder:
    """Streaming decoder: feed arbitrary chunks, iterate complete frames.

    Transports deliver bytes with no respect for frame boundaries -- one
    read may carry half a frame or twenty coalesced ones.  The decoder
    buffers exactly the unconsumed tail and compacts it after each drain,
    so memory stays bounded by one frame (enforced by ``MAX_PAYLOAD``) plus
    one read chunk.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decoded into a complete frame."""
        return len(self._buffer) - self._offset

    def feed(self, data: Union[bytes, bytearray, memoryview]) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame currently buffered (may be none)."""
        while True:
            frame, self._offset = decode_frame(self._buffer, self._offset)
            if frame is None:
                break
            yield frame
        if self._offset:
            del self._buffer[:self._offset]
            self._offset = 0

    def drain(self, data: Union[bytes, bytearray, memoryview] = b"") \
            -> List[Frame]:
        """``feed`` + collect all complete frames, as a list."""
        if data:
            self.feed(data)
        return list(self.frames())
