"""The wire op table: every op of the serving wire, declared once.

Each :class:`Op` names its binary request and reply frames (none for the
JSON-only lifecycle ops), its server handler and its routing class at the
shard router.  Both codecs, both clients, the router's worker trunks, the
server and router dispatch and the ``op`` label of
``repro_wire_requests_total`` all derive from it; ``docs/ARCHITECTURE.md``
("Wire ops") lists it for readers.

Binary frames convert to and from the JSON protocol's message dicts, so
everything above the codecs sees one shape.  A frame field maps to the
message key of the same name unless the protocols spell it differently
(:data:`_SPELLINGS`); a field whose frame default is ``None`` is left out
of the message while unset, so fingerprint-less alarm events keep their
pre-lifecycle shape.  The conversion plans are built at import.
"""

from __future__ import annotations

import dataclasses
import json
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from . import wire

__all__ = ["Op", "FanOut", "OPS", "lookup", "worker_entry", "request_frame",
           "request_message", "reply_frame", "reply_message", "event_frame",
           "STREAM", "READ_OUT", "FAN_OUT", "LOCAL", "REFUSED"]

Message = Dict[str, Any]

#: Routing classes of the shard router (:attr:`Op.route`).
STREAM = "stream"        # proxied to the worker that owns the stream id
READ_OUT = "read-out"    # answered by the router from merged worker replies
FAN_OUT = "fan-out"      # sent to every ring worker, see :class:`FanOut`
LOCAL = "local"          # answered by the router itself
REFUSED = "refused"      # per-worker ops the router does not serve

#: :attr:`FanOut.policy` values.
ALL_OR_NOTHING = "all-or-nothing"
EACH = "each"
TOLERANT = "tolerant"


def worker_entry(reply: Message) -> Message:
    """A worker's reply without its ``ok``/``op`` envelope."""
    return {key: value for key, value in reply.items()
            if key not in ("ok", "op")}


@dataclasses.dataclass(frozen=True)
class FanOut:
    """How the shard router runs a lifecycle op on every ring worker.

    Workers go in name order.  ``all-or-nothing`` stops at the first
    failing worker (refusal or lost trunk); ``each`` tries every worker
    and fails if any failed; ``tolerant`` tries every worker and never
    fails.  ``undo`` goes to the workers where the op took effect (a true
    ``effect`` key) unless it took effect everywhere.  The fleet reply
    holds ``fleet(entries, everywhere)`` plus each worker's ``entry``.
    """

    #: hold the router gate exclusively, so no stream op is in flight and
    #: the fleet changes model at one consistent cut
    exclusive: bool
    policy: str
    entry: Callable[[Message], Any] = worker_entry
    fleet: Callable[[Dict[str, Any], bool], Message] = lambda entries, _: {}
    undo: Optional[Message] = None
    effect: str = "ok"


@dataclasses.dataclass(frozen=True)
class Op:
    """One wire op: its frames, server handler and routing class."""

    name: str
    #: binary request / reply frame classes (None: the op is JSON-only)
    request: Optional[type]
    reply: Optional[type]
    #: routing class at the shard router
    route: str
    #: fleet semantics of a :data:`FAN_OUT` op
    fan_out: Optional[FanOut] = None
    #: a :data:`STREAM` op that ends its stream
    ends_stream: bool = False

    @property
    def handler(self) -> str:
        """The method serving the op on a wire server (and, for read-out
        and local ops, on the shard router)."""
        return "_op_" + self.name


def _fleet_verdict(reports: Dict[str, Message], _: bool) -> Message:
    # The fleet promotes only when *every* worker's gates pass: each
    # worker judges its own traffic slice, and a promotion must be
    # unanimous or the fleet's models diverge.
    verdicts = {report["verdict"] for report in reports.values()}
    if verdicts == {"promote"}:
        return {"verdict": "promote"}
    return {"verdict": "reject" if "reject" in verdicts else "undecided"}


def _report(reply: Message) -> Message:
    return reply["report"]


_TABLE: Tuple[Op, ...] = (
    Op("open", wire.Open, wire.OpenAck, STREAM),
    Op("push", wire.Push, wire.PushAck, STREAM),
    Op("close", wire.Close, wire.CloseAck, STREAM, ends_stream=True),
    Op("stats", wire.Stats, wire.StatsAck, READ_OUT),
    Op("snapshot", wire.Snapshot, wire.SnapshotAck, READ_OUT),
    Op("metrics", wire.Metrics, wire.MetricsAck, READ_OUT),
    Op("ping", wire.Ping, wire.PingAck, LOCAL),
    Op("shutdown", wire.Shutdown, wire.ShutdownAck, LOCAL),
    Op("trace", wire.Trace, wire.TraceAck, REFUSED),
    Op("export_session", wire.ExportSession, wire.ExportSessionAck, REFUSED),
    Op("import_session", wire.ImportSession, wire.ImportSessionAck, REFUSED),
    # A mid-fleet failure detaches the canaries that did attach, so the
    # fleet never shadow-scores half a candidate.
    Op("canary", None, None, FAN_OUT, FanOut(
        False, ALL_OR_NOTHING, undo={"op": "canary_stop"},
        entry=lambda reply: {"fingerprint": reply.get("fingerprint")},
        fleet=lambda entries, _: {
            "fingerprint": next(iter(entries.values()))["fingerprint"]})),
    Op("canary_status", None, None, FAN_OUT, FanOut(
        False, ALL_OR_NOTHING, entry=_report, fleet=_fleet_verdict)),
    # Tolerates workers without a canary.
    Op("canary_stop", None, None, FAN_OUT, FanOut(
        False, TOLERANT, entry=_report)),
    # A fleet serving two models is worse than a delayed promotion: the
    # workers that already swapped are rolled back.
    Op("promote", None, None, FAN_OUT, FanOut(
        True, ALL_OR_NOTHING, effect="promoted",
        undo={"op": "rollback", "reason": "cluster:partial-promotion"},
        fleet=lambda _, everywhere: {"promoted": everywhere})),
    Op("rollback", None, None, FAN_OUT, FanOut(
        True, EACH, fleet=lambda entries, _: {"rolled_back": True})),
)

#: op name -> table entry, in table order
OPS: Dict[str, Op] = {op.name: op for op in _TABLE}
_CODES = {op.name: op.request.op for op in _TABLE if op.request is not None}
_NAMES = {code: name for name, code in _CODES.items()}


def lookup(name: Any) -> Optional[Op]:
    """The entry of op ``name``; None for anything else (unhashables too)."""
    return OPS.get(name) if isinstance(name, str) else None


# --------------------------------------------------------------------------- #
# Message <-> frame conversion
# --------------------------------------------------------------------------- #
def _json_text(value: Any) -> str:
    return json.dumps(value, allow_nan=False, separators=(",", ":"))


#: Where the two protocols spell a field differently: ``(frame class,
#: field) -> (message key, frame->message, message->frame)``.  A
#: message->frame converter also receives None for an absent key.
_SPELLINGS: Dict[Tuple[type, str], tuple] = {
    # JSON pushes carry float64 values, binary pushes float32 blocks.
    (wire.Push, "samples"): (
        "values", lambda block: np.asarray(block, dtype=np.float64), None),
    # NaN is not JSON: an empty queue-delay histogram reads as null.
    (wire.StatsAck, "queue_delay_p99_s"): (
        "queue_delay_p99_s", lambda p99: None if np.isnan(p99) else p99,
        lambda p99: float("nan") if p99 is None else p99),
    (wire.TraceAck, "json_text"): ("trace", json.loads, _json_text),
    (wire.SnapshotAck, "json_text"): ("snapshot", json.loads, _json_text),
    # The frame always carries a tenant key; a single-artifact server
    # answers to the implicit "default" tenant.
    (wire.ImportSession, "tenant"): (
        "tenant", None, lambda tenant: tenant or "default"),
    # ERROR frames echo the request's opcode (0: unknown).
    (wire.ErrorReply, "request_op"): (
        "op", _NAMES.get,
        lambda name: _CODES.get(name, 0) if isinstance(name, str) else 0),
    (wire.ErrorReply, "message"): ("error", None, str),
}


class _Shape:
    """Message <-> frame conversion plan of one frame class."""

    __slots__ = ("frame_type", "head", "fields")

    def __init__(self, frame_type: type, head: Message) -> None:
        if dataclasses.is_dataclass(frame_type):
            names = [(field.name, field.default is None)
                     for field in dataclasses.fields(frame_type)]
        else:                                   # Push: a slotted class
            names = [(name, False) for name in frame_type.__slots__]
        self.frame_type = frame_type
        self.head = head
        fields = []
        for name, optional in names:
            key, to_message, to_frame = _SPELLINGS.get(
                (frame_type, name), (name, None, None))
            fields.append(
                (attrgetter(name), key, optional, to_message, to_frame))
        #: (field getter, message key, optional, to message, to frame)
        self.fields = tuple(fields)

    def message(self, frame: wire.Frame) -> Message:
        message = dict(self.head)
        for value_of, key, optional, to_message, _ in self.fields:
            value = value_of(frame)
            if value is None and optional:
                continue
            message[key] = value if to_message is None else to_message(value)
        return message

    def frame(self, message: Message) -> wire.Frame:
        args = []
        for _, key, optional, _, to_frame in self.fields:
            if to_frame is not None:
                args.append(to_frame(message.get(key)))
            else:
                args.append(message.get(key) if optional else message[key])
        return self.frame_type(*args)


_REQUESTS = {op.name: _Shape(op.request, {"op": op.name})
             for op in _TABLE if op.request is not None}
_REPLIES = {op.name: _Shape(op.reply, {"ok": True, "op": op.name})
            for op in _TABLE if op.reply is not None}
_EVENT = _Shape(wire.AlarmEvent, {"event": "alarm"})
_ERROR = _Shape(wire.ErrorReply, {"ok": False})
_REQUEST_FRAMES = {shape.frame_type: shape for shape in _REQUESTS.values()}
_REPLY_FRAMES = {shape.frame_type: shape
                 for shape in (*_REPLIES.values(), _EVENT, _ERROR)}


def request_frame(message: Message) -> wire.Frame:
    """A request message as its binary frame (clients, router trunks)."""
    name = message["op"]
    op = lookup(name)
    if op is None:
        raise ValueError(f"unknown op {name!r}")
    if op.request is None:
        raise ValueError(
            f"lifecycle op {name!r} is JSON-only; use the JSON protocol")
    return _REQUESTS[name].frame(message)


def request_message(frame: wire.Frame) -> Optional[Message]:
    """A decoded request frame as its message; None for other frames."""
    shape = _REQUEST_FRAMES.get(type(frame))
    return None if shape is None else shape.message(frame)


def reply_frame(reply: Message) -> wire.Frame:
    """A reply message as its frame (failed replies become ERROR frames)."""
    if not reply.get("ok"):
        return _ERROR.frame(reply)
    shape = _REPLIES.get(reply["op"])
    if shape is None:
        raise RuntimeError(f"no binary encoding for reply op {reply['op']!r}")
    return shape.frame(reply)


def reply_message(frame: wire.Frame) -> Message:
    """A reply, ERROR or ALARM_EVENT frame as its JSON-protocol dict."""
    shape = _REPLY_FRAMES.get(type(frame))
    if shape is None:
        raise ConnectionError(
            f"unexpected frame op 0x{frame.op:02X} from the server")
    return shape.message(frame)


def event_frame(event: Message) -> wire.AlarmEvent:
    """An alarm event dict (the JSON event line) as its ALARM_EVENT frame."""
    return _EVENT.frame(event)
