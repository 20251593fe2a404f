"""The wire op table (``repro.serve.ops``) against codecs, clients and docs.

Unit level, no sockets: every request frame type belongs to exactly one
op; every binary-capable request, reply, error and alarm event survives
message -> frame -> bytes -> frame -> message through the one codec that
the server, both clients and the router's trunks share, with frames
equal to hand-built ones (so the wire bytes are the pre-table bytes);
JSON-only ops are refused by :class:`BinaryClient`; and the op table in
``docs/ARCHITECTURE.md`` lists exactly the code's ops.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ShardRouter
from repro.serve import AnomalyWireServer, BinaryClient, ops, wire

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"

BLOCK = np.array([[0.5, -1.25, 3.0], [np.inf, -0.0, 2.0 ** -140]])

#: (op, request message, the frame it must encode to)
REQUESTS = [
    ("open", {"op": "open", "stream": "s"}, wire.Open("s")),
    ("open", {"op": "open", "stream": "s", "max_samples": 9, "tenant": "t"},
     wire.Open("s", 9, "t")),
    ("push", {"op": "push", "stream": "s", "values": BLOCK},
     wire.Push("s", BLOCK)),
    ("close", {"op": "close", "stream": "s"}, wire.Close("s")),
    ("stats", {"op": "stats"}, wire.Stats()),
    ("snapshot", {"op": "snapshot"}, wire.Snapshot()),
    ("metrics", {"op": "metrics"}, wire.Metrics()),
    ("ping", {"op": "ping"}, wire.Ping()),
    ("shutdown", {"op": "shutdown"}, wire.Shutdown()),
    ("trace", {"op": "trace"}, wire.Trace()),
    ("export_session", {"op": "export_session", "stream": "s"},
     wire.ExportSession("s")),
    ("import_session", {"op": "import_session", "tenant": "t",
                        "state": "QUJD"}, wire.ImportSession("t", "QUJD")),
]

#: (op, reply message, the frame it must encode to)
REPLIES = [
    ("open", {"ok": True, "op": "open", "stream": "s", "window": 64,
              "incremental": True, "threshold": 1.5},
     wire.OpenAck("s", 64, True, 1.5)),
    ("open", {"ok": True, "op": "open", "stream": "s", "window": 8,
              "incremental": False, "threshold": None},
     wire.OpenAck("s", 8, False, None)),
    ("push", {"ok": True, "op": "push", "accepted": 3}, wire.PushAck(3)),
    ("close", {"ok": True, "op": "close", "stream": "s", "samples_pushed": 1,
               "samples_scored": 2, "samples_dropped": 3,
               "adaptation_events": 4}, wire.CloseAck("s", 1, 2, 3, 4)),
    ("stats", {"ok": True, "op": "stats", "live_sessions": 1,
               "samples_pushed": 2, "samples_scored": 3, "samples_dropped": 4,
               "flushes": 5, "mean_batch_size": 2.5,
               "queue_delay_p99_s": 0.01},
     wire.StatsAck(1, 2, 3, 4, 5, 2.5, 0.01)),
    ("stats", {"ok": True, "op": "stats", "live_sessions": 0,
               "samples_pushed": 0, "samples_scored": 0, "samples_dropped": 0,
               "flushes": 0, "mean_batch_size": 0.0,
               "queue_delay_p99_s": None},
     wire.StatsAck(0, 0, 0, 0, 0, 0.0, float("nan"))),
    ("snapshot", {"ok": True, "op": "snapshot",
                  "snapshot": {"services": {"default": {"fingerprint": None}}}},
     wire.SnapshotAck('{"services":{"default":{"fingerprint":null}}}')),
    ("metrics", {"ok": True, "op": "metrics", "text": "# HELP x\nx 1\n"},
     wire.MetricsAck("# HELP x\nx 1\n")),
    ("ping", {"ok": True, "op": "ping"}, wire.PingAck()),
    ("shutdown", {"ok": True, "op": "shutdown"}, wire.ShutdownAck()),
    ("trace", {"ok": True, "op": "trace", "trace": {"traceEvents": []}},
     wire.TraceAck('{"traceEvents":[]}')),
    ("export_session", {"ok": True, "op": "export_session", "stream": "s",
                        "tenant": "t", "state": "QUJD"},
     wire.ExportSessionAck("s", "t", "QUJD")),
    ("import_session", {"ok": True, "op": "import_session", "stream": "s"},
     wire.ImportSessionAck("s")),
]

#: failed replies and alarm events: (message, frame)
ERRORS_AND_EVENTS = [
    ({"ok": False, "op": "push", "error": "boom"},
     wire.ErrorReply(wire.OP_PUSH, "boom")),
    ({"ok": False, "op": None, "error": "bad JSON line"},
     wire.ErrorReply(0, "bad JSON line")),
    ({"event": "alarm", "stream": "s", "index": 7, "score": 3.5,
      "threshold": 1.0}, wire.AlarmEvent("s", 7, 3.5, 1.0)),
    ({"event": "alarm", "stream": "s", "index": 7, "score": 3.5,
      "threshold": None, "fingerprint": "ab12"},
     wire.AlarmEvent("s", 7, 3.5, None, "ab12")),
]


def _round_trip(frame):
    data = wire.encode(frame)
    decoded, consumed = wire.decode_frame(data)
    assert consumed == len(data)
    return data, decoded


def _assert_same_message(actual, expected):
    assert list(actual) == list(expected)
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(actual[key], value)
        else:
            assert actual[key] == value, key


def test_every_request_frame_type_maps_to_exactly_one_op():
    request_types = [frame_type for frame_type in wire._FRAME_TYPES
                     if frame_type.op < 0x80]
    assert request_types
    for frame_type in request_types:
        owners = [op.name for op in ops.OPS.values()
                  if op.request is frame_type]
        assert len(owners) == 1, (frame_type.__name__, owners)
    reply_types = {op.reply for op in ops.OPS.values() if op.reply}
    assert len(reply_types) == sum(1 for op in ops.OPS.values() if op.reply)


def test_examples_cover_every_binary_op():
    binary = {name for name, op in ops.OPS.items() if op.request is not None}
    assert {name for name, _, _ in REQUESTS} == binary
    assert {name for name, _, _ in REPLIES} == \
        {name for name, op in ops.OPS.items() if op.reply is not None}


@pytest.mark.parametrize("name,message,frame", REQUESTS,
                         ids=[name for name, _, _ in REQUESTS])
def test_request_round_trip(name, message, frame):
    encoded = ops.request_frame(message)
    assert encoded == frame
    data, decoded = _round_trip(encoded)
    assert data == wire.encode(frame)
    _assert_same_message(ops.request_message(decoded), message)


@pytest.mark.parametrize("name,message,frame", REPLIES,
                         ids=[name for name, _, _ in REPLIES])
def test_reply_round_trip(name, message, frame):
    encoded = ops.reply_frame(message)
    assert encoded == frame
    data, decoded = _round_trip(encoded)
    assert data == wire.encode(frame)
    _assert_same_message(ops.reply_message(decoded), message)


@pytest.mark.parametrize("message,frame", ERRORS_AND_EVENTS)
def test_error_and_event_round_trip(message, frame):
    encoded = ops.event_frame(message) if "event" in message \
        else ops.reply_frame(message)
    assert encoded == frame
    data, decoded = _round_trip(encoded)
    assert data == wire.encode(frame)
    _assert_same_message(ops.reply_message(decoded), message)


def test_import_without_tenant_targets_the_default_tenant():
    assert ops.request_frame({"op": "import_session", "state": "QUJD"}) == \
        wire.ImportSession("default", "QUJD")


def test_frames_of_the_other_direction_are_not_decoded():
    assert ops.request_message(wire.PingAck()) is None
    with pytest.raises(ConnectionError, match="unexpected frame op 0x05"):
        ops.reply_message(wire.Ping())


@pytest.mark.parametrize(
    "name", [name for name, op in ops.OPS.items() if op.request is None])
def test_binary_client_refuses_json_only_ops(name):
    class NoSocket:
        def sendall(self, data):
            raise AssertionError("a JSON-only op reached the socket")

    client = BinaryClient.__new__(BinaryClient)
    client._socket = NoSocket()
    with pytest.raises(ValueError, match=re.escape(
            f"lifecycle op {name!r} is JSON-only; use the JSON protocol")):
        client.request({"op": name})


def test_unknown_and_unhashable_ops_are_not_in_the_table():
    assert ops.lookup("nope") is None
    assert ops.lookup(["open"]) is None
    assert ops.lookup({}) is None
    with pytest.raises(ValueError, match="unknown op 'nope'"):
        ops.request_frame({"op": "nope"})


def test_every_op_has_its_handlers_and_fleet_semantics():
    for op in ops.OPS.values():
        assert callable(getattr(AnomalyWireServer, op.handler)), op.name
        if op.route in (ops.READ_OUT, ops.LOCAL):
            assert callable(getattr(ShardRouter, op.handler)), op.name
        assert (op.route == ops.FAN_OUT) == (op.fan_out is not None), op.name
        assert op.route in (ops.STREAM, ops.READ_OUT, ops.FAN_OUT, ops.LOCAL,
                            ops.REFUSED), op.name


def _documented_ops():
    """Rows of the "Wire ops" table in docs/ARCHITECTURE.md."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("## Wire ops", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        rows[cells[0].strip("`")] = (cells[1].strip("`"), cells[2])
    return rows


def test_architecture_doc_lists_the_op_table():
    documented = _documented_ops()
    assert list(documented) == list(ops.OPS)
    for name, op in ops.OPS.items():
        opcode = "JSON-only" if op.request is None \
            else f"0x{op.request.op:02X}"
        assert documented[name] == (opcode, op.route), name
