"""Networked front door for :class:`AnomalyService`: one dispatch core,
pluggable protocols and transports.

Every connection speaks one of two *protocols*, decided by its first byte
(no handshake round trip):

* **line-delimited JSON** -- first byte is anything but ``0xAB``.  Every
  line is one JSON object, UTF-8, ``\\n``-terminated; any producer -- a
  shell script, ``nc``, a robot cell's data logger -- can use it, which is
  exactly why it stays the debuggability path.
* **binary** -- first byte ``0xAB`` (the :data:`repro.serve.wire.MAGIC`
  prefix).  Struct-packed frames with float32 sample blocks, many samples
  per PUSH frame; the compact ingest path for high sample rates (see
  :mod:`repro.serve.wire` for the frame layout).

JSON requests (client -> server) are objects with an ``"op"`` key plus
op-specific fields, e.g.::

    {"op": "open",  "stream": "cell-7"}            optional: "max_samples",
                                                   "tenant" (cluster workers)
    {"op": "push",  "stream": "cell-7", "values": [0.1, 0.2, ...]}

Every op, its binary opcode (or "JSON-only") and its routing class at the
shard router is listed in the op table of ``docs/ARCHITECTURE.md`` ("Wire
ops"), which mirrors :data:`repro.serve.ops.OPS` -- the one table both
codecs, both clients and the router derive from.

(``metrics`` and ``trace`` answer only when the service was built with
``ServiceConfig(observability=True)``; otherwise they get a structured
error reply, like any other rejected op.  ``snapshot`` answers always --
it reads counters the hot path maintains anyway -- and is what
:mod:`repro.cluster` aggregates into fleet stats.)

The control-plane ops for the cluster's session re-homing,
``export_session`` and ``import_session``, are refused unless the
server was built with ``allow_handoff=True`` (cluster workers only --
imported blobs are pickles and must never be accepted from untrusted
clients).

Every request gets exactly one reply, in request order::

    {"ok": true, "op": "push", "accepted": 1}      (+ op-specific fields)
    {"ok": false, "op": "push", "error": "..."}

Between replies the server interleaves unsolicited *event* lines (JSON: a
line with an ``"event"`` key; binary: an ALARM_EVENT frame) for every alarm
raised by any stream of this connection::

    {"event": "alarm", "stream": "cell-7", "index": 412,
     "score": 3.1, "threshold": 1.9}

The binary protocol carries every op that has frames in the op table
(all but the JSON-only lifecycle ops) frame-for-frame; its PUSH
frames batch ``(n_samples, n_channels)`` float32 blocks and are acked once
per frame.  Malformed JSON gets an error *reply* and the connection
continues; malformed binary framing gets an ERROR frame and the connection
closes (a corrupted byte stream cannot be resynchronised).  Either way the
service itself never crashes and the connection's sessions are cleaned up.

``close`` replies with the session summary (samples pushed/scored/dropped,
adaptation event count), so a producer gets its end-of-stream accounting
without a second channel.  Backpressure under the ``"reject"`` policy
surfaces as an error reply; under ``"block"`` the reply is simply delayed
-- the transport's own flow control propagates the slowdown.

*Transports* are pluggable too (:mod:`repro.serve.transport`):
:class:`AnomalyWireServer` serves over any :class:`~repro.serve.transport.
Transport`: a :class:`~repro.serve.transport.TCPTransport` serves
off-host producers, and a :class:`~repro.serve.transport.
UnixSocketTransport` serves co-located producers with no TCP/IP stack in
the path.  Clients mirror the split:
:class:`TCPClient` (JSON) and :class:`BinaryClient` share one blocking
request core and both accept ``uds_path=`` to connect over a Unix socket.
Streams opened by a connection are closed (and drained) when that
connection drops, so a crashed producer cannot leak sessions.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import socket
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from . import ops, wire
from .service import AnomalyService
from .transport import (TCPTransport, Transport, UnixSocketTransport,
                        bound_port)

__all__ = ["AnomalyWireServer", "TCPClient", "BinaryClient",
           "ServerTimeoutError", "PROTOCOLS", "write_endpoint_file"]

#: The protocols a server may accept; ``AnomalyWireServer(protocols=...)``
#: restricts them (e.g. binary-only for a production ingest socket).
PROTOCOLS = ("json", "binary")


def write_endpoint_file(path: Union[str, Path], text: str) -> None:
    """Atomically publish an endpoint line: write a temp file, then rename.

    Pollers race the writer by design (the port-file handshake), so the
    visible file must never hold a partial line.  ``os.replace`` of a file
    written in the same directory is atomic on POSIX and Windows alike.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text + "\n", encoding="utf-8")
    os.replace(temp, path)


class ServerTimeoutError(ConnectionError):
    """No reply arrived within the client's timeout (stalled/half-closed)."""


class _MalformedRequest(Exception):
    """A request the codec could not parse.

    ``fatal`` distinguishes recoverable malformations (a bad JSON line --
    the framing is still line-synchronised, reply and continue) from
    unrecoverable ones (corrupt binary framing -- reply once, then close).
    """

    def __init__(self, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


def _json_line(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# Server-side protocol codecs
# --------------------------------------------------------------------------- #
class _JSONServerConnection:
    """Line-delimited JSON framing for one server connection."""

    protocol = "json"

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, first_byte: bytes) -> None:
        self._reader = reader
        self._writer = writer
        self._first = first_byte

    async def read_request(self) -> Optional[Dict[str, Any]]:
        line = await self._reader.readline()
        if self._first:
            line, self._first = self._first + line, b""
        if not line:
            return None
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _MalformedRequest(f"bad JSON line: {error}") from error
        if not isinstance(message, dict) or "op" not in message:
            raise _MalformedRequest(
                "each line must be an object with an 'op' key")
        return message

    def write_reply(self, reply: Dict[str, Any]) -> None:
        self._writer.write(_json_line(reply))

    def write_event(self, event: wire.AlarmEvent) -> None:
        self._writer.write(_json_line(ops.reply_message(event)))


class _BinaryServerConnection:
    """Binary wire framing for one server connection."""

    protocol = "binary"

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, first_byte: bytes) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = wire.FrameDecoder()
        self._decoder.feed(first_byte)
        self._pending: List[wire.Frame] = []

    async def read_request(self) -> Optional[Dict[str, Any]]:
        while not self._pending:
            try:
                self._pending.extend(self._decoder.frames())
            except wire.WireProtocolError as error:
                raise _MalformedRequest(str(error), fatal=True) from error
            if self._pending:
                break
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                if self._decoder.pending_bytes:
                    # EOF mid-frame: nothing to reply to; the connection
                    # handler's cleanup path closes the sessions.
                    raise _MalformedRequest(
                        "connection dropped mid-frame", fatal=True)
                return None
            self._decoder.feed(chunk)
        frame = self._pending.pop(0)
        message = ops.request_message(frame)
        if message is None:
            # A structurally valid frame that is not a request (a client
            # echoing server reply ops): framing is still synchronised, so
            # answer with a structured error and keep the connection.
            raise _MalformedRequest(
                f"frame op 0x{frame.op:02X} is not a request op")
        return message

    def write_reply(self, reply: Dict[str, Any]) -> None:
        self._writer.write(wire.encode(ops.reply_frame(reply)))

    def write_event(self, event: wire.AlarmEvent) -> None:
        self._writer.write(wire.encode(event))


class _Connection:
    """One accepted connection: its codec and the streams it owns."""

    def __init__(self, codec, writer: asyncio.StreamWriter) -> None:
        self.codec = codec
        self.writer = writer
        self.protocol = codec.protocol
        #: live streams this connection opened (closed when it drops)
        self.owned: List[str] = []
        # The alarm forwarder filters on every stream this connection EVER
        # owned, not the live set: a close drains pending windows whose
        # alarms are broadcast before the close handler prunes `owned`, and
        # those end-of-stream alarms must still reach the client.
        # (Consequence: do not reuse a closed stream id from a different
        # connection.)
        self.ever_owned: set = set()
        self.tasks: List[asyncio.Task] = []


class _FrontDoor:
    """What :class:`AnomalyWireServer` and the shard router share.

    First-byte protocol negotiation, the request loop with its
    malformed-input policy, op-table dispatch (:meth:`_serve`) and the
    ``ping``/``shutdown`` handlers.  Once the endpoint is stopping, a
    connection closes after its current reply.
    """

    transport: Transport
    allow_shutdown: bool = True
    protocols = PROTOCOLS
    _server: Optional[asyncio.AbstractServer] = None
    _stopping: Optional[asyncio.Event] = None
    # Wire-level metric families (None family = no-op).
    _connections_total = None
    _requests_total = None
    _wire_errors_total = None

    @property
    def bound_port(self) -> int:
        """The actual TCP port (useful with ``port=0`` ephemeral binding)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        if not isinstance(self.transport, TCPTransport):
            raise RuntimeError(
                f"the {self.transport.kind!r} transport has no TCP port"
            )
        return bound_port(self._server)

    @property
    def bound_address(self) -> str:
        """Endpoint text once listening (port number for TCP, path for UDS)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self.transport.address_text(self._server)

    def request_stop(self) -> None:
        """Ask ``serve_forever`` to wind down (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    # -- per-connection handling ------------------------------------------- #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn: Optional[_Connection] = None
        try:
            first = await reader.read(1)
            if first:
                codec = _BinaryServerConnection \
                    if first == wire.MAGIC[:1] else _JSONServerConnection
                conn = _Connection(codec(reader, writer, first), writer)
                await self._connection_loop(conn)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if conn is not None:
                await self._disconnected(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled us mid-close; the transport is
                # going away with the loop, so a silent return is clean.
                return

    async def _connection_loop(self, conn: _Connection) -> None:
        codec = conn.codec
        if conn.protocol not in self.protocols:
            codec.write_reply({
                "ok": False, "op": None,
                "error": f"the {conn.protocol} protocol is disabled on this "
                         f"server (accepted: {', '.join(self.protocols)})"})
            await conn.writer.drain()
            return
        if self._connections_total is not None:
            self._connections_total.labels(protocol=conn.protocol).inc()
        self._connected(conn)
        while True:
            try:
                message = await codec.read_request()
            except _MalformedRequest as error:
                if self._wire_errors_total is not None:
                    self._wire_errors_total.labels(
                        protocol=conn.protocol).inc()
                codec.write_reply(
                    {"ok": False, "op": None, "error": str(error)})
                try:
                    await conn.writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    return
                if error.fatal:
                    return
                continue
            if message is None:
                return
            if self._requests_total is not None:
                name = message.get("op")
                self._requests_total.labels(
                    protocol=conn.protocol,
                    op=name if ops.lookup(name) else "unknown").inc()
            reply = await self._dispatch(message, conn)
            if not reply.get("ok") and self._wire_errors_total is not None:
                self._wire_errors_total.labels(protocol=conn.protocol).inc()
            codec.write_reply(reply)
            await conn.writer.drain()
            if self._stopping is not None and self._stopping.is_set():
                return

    def _connected(self, conn: _Connection) -> None:
        """Hook: ``conn`` passed negotiation and starts its request loop."""

    async def _disconnected(self, conn: _Connection) -> None:
        """Hook: ``conn`` dropped; release what it owned."""

    async def _dispatch(self, message: Dict[str, Any],
                        conn: _Connection) -> Dict[str, Any]:
        name = message.get("op")
        op = ops.lookup(name)
        try:
            if op is None:
                raise ValueError(f"unknown op {name!r}")
            return await self._serve(op, message, conn)
        except (ValueError, TypeError, LookupError, RuntimeError,
                ConnectionError) as error:
            # TypeError covers malformed client payloads (e.g. a string
            # max_samples) -- one error reply, never a dropped connection.
            return {"ok": False, "op": name if isinstance(name, str) else None,
                    "error": str(error)}

    async def _serve(self, op: ops.Op, message: Dict[str, Any],
                     conn: _Connection) -> Dict[str, Any]:
        """Answer one request for a known op (raise to reply an error)."""
        return await getattr(self, op.handler)(message, conn)

    async def _op_ping(self, message: Dict[str, Any],
                       conn: _Connection) -> Dict[str, Any]:
        return {"ok": True, "op": "ping"}

    async def _op_shutdown(self, message: Dict[str, Any],
                           conn: _Connection) -> Dict[str, Any]:
        if not self.allow_shutdown:
            raise ValueError("shutdown is disabled on this server")
        self.request_stop()
        return {"ok": True, "op": "shutdown"}


class AnomalyWireServer(_FrontDoor):
    """Serve an :class:`AnomalyService` over a pluggable transport.

    One dispatch core handles every connection; each connection's first
    byte selects its protocol codec (``0xAB`` = binary, else line JSON).
    ``protocols`` restricts what this listener accepts -- a connection
    speaking a disabled protocol gets one structured error and is closed.
    Each op is served by the method its op-table entry names
    (:attr:`repro.serve.ops.Op.handler`).
    """

    def __init__(self, service: AnomalyService, transport: Transport, *,
                 allow_shutdown: bool = True,
                 allow_handoff: bool = False,
                 protocols: Iterable[str] = PROTOCOLS) -> None:
        self.service = service
        self.transport = transport
        #: honour the ``shutdown`` op (the smoke flow's clean-exit path);
        #: disable for servers that must only stop from their own host.
        self.allow_shutdown = allow_shutdown
        #: honour ``export_session``/``import_session``.  Off by default:
        #: imports deserialise pickled session state, so only
        #: cluster-internal worker endpoints may enable this.
        self.allow_handoff = allow_handoff
        self.protocols = tuple(protocols)
        unknown = set(self.protocols) - set(PROTOCOLS)
        if unknown or not self.protocols:
            raise ValueError(
                f"protocols must be a non-empty subset of {PROTOCOLS}, "
                f"got {tuple(protocols)!r}"
            )
        self._alarm_events_total = None
        # Wire-level metric families, registered into the service's
        # registry when observability is on.
        if service.observability is not None:
            registry = service.observability.registry
            self._connections_total = registry.counter(
                "repro_wire_connections_total",
                "Connections accepted, by negotiated protocol.",
                labels=("protocol",))
            self._requests_total = registry.counter(
                "repro_wire_requests_total",
                "Requests dispatched, by protocol and op.",
                labels=("protocol", "op"))
            self._wire_errors_total = registry.counter(
                "repro_wire_errors_total",
                "Error replies sent (malformed frames + rejected ops).",
                labels=("protocol",))
            self._alarm_events_total = registry.counter(
                "repro_wire_alarm_events_total",
                "Unsolicited alarm events forwarded to clients.",
                labels=("protocol",))

    async def serve_forever(self,
                            port_file: Optional[Union[str, Path]] = None,
                            ready: Optional[asyncio.Event] = None) -> None:
        """Run service + listener until ``shutdown`` (or cancellation).

        ``port_file``, when given, receives the bound endpoint as text once
        the listener is up (the TCP port number, or the UDS path) -- a
        race-free handshake for scripted clients.  ``ready`` is set at the
        same moment (for in-process callers).
        """
        self._stopping = asyncio.Event()
        started: List[AnomalyService] = []
        try:
            for service in self._all_services():
                await service.start()
                started.append(service)
            self._server = await self.transport.listen(self._handle_connection)
            try:
                if port_file is not None:
                    # Atomic write-then-rename: a poller racing this
                    # handshake must never read a partial endpoint line.
                    write_endpoint_file(port_file, self.bound_address)
                if ready is not None:
                    ready.set()
                await self._stopping.wait()
            finally:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
        finally:
            for service in reversed(started):
                await service.stop()

    # -- the served services (overridable: multi-tenant cluster workers) ---- #
    def _all_services(self) -> Iterable[AnomalyService]:
        """Every service this server fronts (one, unless multi-tenant)."""
        return (self.service,)

    def _named_services(self) -> Dict[str, AnomalyService]:
        """Tenant-name view of :meth:`_all_services` (snapshot schema)."""
        return {"default": self.service}

    def _service_for(self, message: Dict[str, Any]) -> AnomalyService:
        """Resolve the service a stream op addresses (tenant routing hook)."""
        if message.get("tenant") not in (None, "default"):
            raise ValueError(
                "this server hosts a single artifact; tenant keys are only "
                "meaningful on a multi-tenant cluster worker")
        return self.service

    def _tenant_for_stream(self, stream_id: str) -> str:
        """The tenant key a session belongs to (export replies carry it)."""
        return "default"

    def _register_stream(self, stream_id: str,
                         message: Dict[str, Any]) -> None:
        """Hook: a stream was opened/imported (tenant bookkeeping)."""

    def _forget_stream(self, stream_id: str) -> None:
        """Hook: a stream was closed/exported."""

    def _session_service(self, stream_id: str) -> Optional[AnomalyService]:
        for service in self._all_services():
            if stream_id in service.sessions:
                return service
        return None

    def _merged_stats(self):
        return self.service.stats()

    def _metrics_text(self) -> str:
        return self.service.metrics_text()

    def _snapshot(self) -> Dict[str, Any]:
        """Machine-readable state of every hosted service (cluster probes)."""
        return {"services": {
            name: {"fingerprint": service.artifact_fingerprint,
                   "stats": service.stats().to_dict()}
            for name, service in self._named_services().items()}}

    def _note_swap(self, service: AnomalyService) -> None:
        """Hook: ``service`` just hot-swapped its detector (promote or
        rollback); multi-tenant servers re-key their fingerprint maps."""

    # -- per-connection handling ------------------------------------------- #
    def _connected(self, conn: _Connection) -> None:
        conn.tasks = [asyncio.create_task(self._forward_alarms(service, conn))
                      for service in self._all_services()]

    async def _disconnected(self, conn: _Connection) -> None:
        for alarm_task in conn.tasks:
            alarm_task.cancel()
        for alarm_task in conn.tasks:
            try:
                await alarm_task
            except asyncio.CancelledError:
                pass
        # A dropped producer must not leak its sessions.
        for stream_id in conn.owned:
            service = self._session_service(stream_id)
            if service is not None:
                try:
                    await service.close_session(stream_id)
                except RuntimeError:
                    pass   # service already stopped
                self._forget_stream(stream_id)

    async def _forward_alarms(self, service: AnomalyService,
                              conn: _Connection) -> None:
        async for alarm in service.alarms():
            if alarm.stream_id not in conn.ever_owned:
                continue
            try:
                conn.codec.write_event(wire.AlarmEvent(
                    alarm.stream_id, alarm.index, alarm.score,
                    alarm.threshold, alarm.fingerprint))
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            if self._alarm_events_total is not None:
                self._alarm_events_total.labels(
                    protocol=conn.protocol).inc()

    def _own(self, conn: _Connection, stream_id: str,
             message: Dict[str, Any]) -> None:
        self._register_stream(stream_id, message)
        conn.owned.append(stream_id)
        conn.ever_owned.add(stream_id)

    def _disown(self, conn: _Connection, stream_id: str) -> None:
        self._forget_stream(stream_id)
        if stream_id in conn.owned:
            conn.owned.remove(stream_id)

    # -- the ops, one handler each (named by the op table) ------------------ #
    async def _op_stats(self, message, conn) -> Dict[str, Any]:
        return dict(_stats_payload(self._merged_stats()), ok=True, op="stats")

    async def _op_snapshot(self, message, conn) -> Dict[str, Any]:
        return {"ok": True, "op": "snapshot", "snapshot": self._snapshot()}

    async def _op_open(self, message, conn) -> Dict[str, Any]:
        stream_id = _required_stream(message)
        service = self._service_for(message)
        session = await service.open_session(
            stream_id, max_samples=message.get("max_samples"))
        self._own(conn, stream_id, message)
        threshold = session.threshold
        return {"ok": True, "op": "open", "stream": stream_id,
                "window": service.detector.window,
                "incremental": session.incremental_active,
                "threshold": None if threshold is None
                else threshold.threshold}

    async def _op_push(self, message, conn) -> Dict[str, Any]:
        stream_id = _required_stream(message)
        block = _push_block(message)
        service = self._session_service(stream_id)
        if service is None:
            service = self._service_for(message)  # auto-open path
            self._own(conn, stream_id, message)
        for row in block:
            await service.push(stream_id, row)
        return {"ok": True, "op": "push", "accepted": int(block.shape[0])}

    async def _op_close(self, message, conn) -> Dict[str, Any]:
        stream_id = _required_stream(message)
        service = self._session_service(stream_id)
        if service is None:
            raise ValueError(f"unknown stream {stream_id!r}")
        session = await service.close_session(stream_id)
        self._disown(conn, stream_id)
        return {"ok": True, "op": "close", "stream": stream_id,
                "samples_pushed": session.samples_pushed,
                "samples_scored": session.samples_scored,
                "samples_dropped": session.samples_dropped,
                "adaptation_events": len(session.adaptation_events)}

    async def _op_export_session(self, message, conn) -> Dict[str, Any]:
        if not self.allow_handoff:
            raise ValueError("session handoff is disabled on this server")
        stream_id = _required_stream(message)
        service = self._session_service(stream_id)
        if service is None:
            raise ValueError(f"unknown stream {stream_id!r}")
        tenant = self._tenant_for_stream(stream_id)
        blob = await service.export_session(stream_id)
        self._disown(conn, stream_id)
        return {"ok": True, "op": "export_session", "stream": stream_id,
                "tenant": tenant,
                "state": base64.b64encode(blob).decode("ascii")}

    async def _op_import_session(self, message, conn) -> Dict[str, Any]:
        if not self.allow_handoff:
            raise ValueError("session handoff is disabled on this server")
        service = self._service_for(message)
        state = message.get("state")
        if not isinstance(state, str) or not state:
            raise ValueError("import_session needs a 'state' string")
        session = await service.import_session(
            base64.b64decode(state.encode("ascii")))
        self._own(conn, session.stream_id, message)
        return {"ok": True, "op": "import_session",
                "stream": session.stream_id}

    async def _op_metrics(self, message, conn) -> Dict[str, Any]:
        return {"ok": True, "op": "metrics", "text": self._metrics_text()}

    async def _op_trace(self, message, conn) -> Dict[str, Any]:
        return {"ok": True, "op": "trace",
                "trace": self.service.trace_export()}

    async def _op_canary(self, message, conn) -> Dict[str, Any]:
        service = self._service_for(message)
        controller = _build_canary(message)
        service.attach_canary(controller)
        watch = message.get("watch")
        if watch is not None and watch is not False:
            from ..lifecycle import MetaWatcher, WatchPolicy
            policy = WatchPolicy(**watch) \
                if isinstance(watch, dict) else WatchPolicy()
            service.attach_watcher(MetaWatcher(policy))
        return {"ok": True, "op": "canary",
                "fingerprint": controller.fingerprint,
                "fraction": controller.fraction,
                "gates": controller.gates.to_dict()}

    async def _op_canary_status(self, message, conn) -> Dict[str, Any]:
        controller = self._service_for(message).canary
        if controller is None:
            raise ValueError("no canary is attached")
        return {"ok": True, "op": "canary_status",
                "report": controller.evaluate().to_dict()}

    async def _op_canary_stop(self, message, conn) -> Dict[str, Any]:
        controller = self._service_for(message).stop_canary()
        return {"ok": True, "op": "canary_stop",
                "report": controller.evaluate().to_dict()}

    async def _op_promote(self, message, conn) -> Dict[str, Any]:
        service = self._service_for(message)
        result = await service.promote(
            force=bool(message.get("force", False)))
        if result["promoted"]:
            self._note_swap(service)
        return dict(result, ok=True, op="promote")

    async def _op_rollback(self, message, conn) -> Dict[str, Any]:
        service = self._service_for(message)
        result = await service.rollback(
            reason=str(message.get("reason", "manual")))
        self._note_swap(service)
        return dict(result, ok=True, op="rollback")


def _build_canary(message: Dict[str, Any]):
    """Build a CanaryController from a ``canary`` op's JSON payload.

    The candidate artifact (and its golden baseline sidecar) is loaded
    from the *server's* filesystem -- the op carries a path, not the
    artifact bytes.
    """
    from ..lifecycle import CanaryController, CanaryGates, load_baseline
    from ..serialize import artifact_fingerprint, load_detector

    artifact = message.get("artifact")
    if not isinstance(artifact, str) or not artifact:
        raise ValueError("op 'canary' needs an 'artifact' path string")
    candidate = load_detector(artifact)
    baseline = load_baseline(artifact)
    gates_spec = message.get("gates")
    if gates_spec is not None and not isinstance(gates_spec, dict):
        raise ValueError("'gates' must be a mapping of gate limits")
    gates = CanaryGates(**gates_spec) if gates_spec else None
    return CanaryController(
        candidate, baseline=baseline, gates=gates,
        fraction=float(message.get("fraction", 0.25)),
        fingerprint=artifact_fingerprint(artifact))


def _required_stream(message: Dict[str, Any]) -> str:
    stream = message.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ValueError(f"op {message['op']!r} needs a 'stream' string")
    return stream


def _push_block(message: Dict[str, Any]) -> np.ndarray:
    """Normalise a push payload to a ``(n_samples, n_channels)`` block.

    JSON pushes carry one sample as a flat ``values`` list; binary pushes
    arrive as an already-decoded 2-D float64 array (many samples).
    """
    values = message.get("values")
    if isinstance(values, np.ndarray):
        if values.ndim != 2 or values.size == 0:
            raise ValueError("push needs a non-empty sample block")
        return values
    if not isinstance(values, list) or not values:
        raise ValueError("push needs a non-empty 'values' array")
    return np.asarray(values, dtype=np.float64)[None, :]


def _json_float(value: float) -> Optional[float]:
    """NaN is not valid JSON; report it as null."""
    return float(value) if np.isfinite(value) else None


def _stats_payload(stats) -> Dict[str, Any]:
    """The JSON body of a ``stats`` reply for a (possibly merged) stats."""
    return {
        "live_sessions": stats.live_sessions,
        "samples_pushed": stats.samples_pushed,
        "samples_scored": stats.samples_scored,
        "samples_dropped": stats.samples_dropped,
        "flushes": stats.flushes,
        "mean_batch_size": stats.mean_batch_size,
        "queue_delay_p99_s": _json_float(stats.queue_delay_p99_s),
    }


# --------------------------------------------------------------------------- #
# Blocking clients
# --------------------------------------------------------------------------- #
class _ClientCore:
    """Shared blocking request core of :class:`TCPClient`/:class:`BinaryClient`.

    Replies are matched to requests in order; unsolicited alarm events that
    arrive in between are collected on :attr:`alarms` (as JSON-shaped
    dicts, whichever protocol carried them).  Reads respect ``timeout_s``:
    a stalled or half-closed server raises :class:`ServerTimeoutError`
    instead of hanging forever.  Subclasses provide the wire framing via
    ``_send`` / ``_read_message``.
    """

    protocol = ""

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None) -> None:
        transport: Transport = TCPTransport(host, port) if uds_path is None \
            else UnixSocketTransport(uds_path)
        self.timeout_s = timeout_s
        self.endpoint = transport.describe()
        try:
            self._socket = transport.connect(timeout_s)
        except socket.timeout as error:
            raise ServerTimeoutError(
                f"could not connect to {self.endpoint} within "
                f"{timeout_s}s"
            ) from error
        #: alarm event payloads received so far (dicts, in arrival order)
        self.alarms: List[Dict[str, Any]] = []

    # -- plumbing ----------------------------------------------------------- #
    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; absorb events until its reply arrives."""
        self._send(payload)
        while True:
            try:
                message = self._read_message()
            except socket.timeout as error:
                raise ServerTimeoutError(
                    f"no reply to op {payload.get('op')!r} from the server "
                    f"at {self.endpoint} within {self.timeout_s}s; the "
                    f"server may be stalled or the connection half-closed"
                ) from error
            if message is None:
                raise ConnectionError("server closed the connection")
            if "event" in message:
                self.alarms.append(message)
                continue
            return message

    def _send(self, payload: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _read_message(self) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def _checked(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        reply = self.request(payload)
        if not reply.get("ok"):
            raise RuntimeError(
                f"server rejected {payload.get('op')!r}: {reply.get('error')}"
            )
        return reply

    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """:meth:`_checked` request of ``op``; None-valued fields are left out."""
        payload: Dict[str, Any] = {"op": op}
        payload.update((key, value) for key, value in fields.items()
                       if value is not None)
        return self._checked(payload)

    # -- the protocol, one method per op ------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        return self._checked({"op": "ping"})

    def open(self, stream_id: str, max_samples: Optional[int] = None,
             tenant: Optional[str] = None) -> Dict[str, Any]:
        return self._call("open", stream=stream_id, max_samples=max_samples,
                          tenant=tenant)

    def push(self, stream_id: str, values) -> Dict[str, Any]:
        return self._checked({
            "op": "push", "stream": stream_id,
            "values": [float(v) for v in np.asarray(values).ravel()],
        })

    def push_stream(self, stream_id: str, stream) -> int:
        """Push a whole ``(T, channels)`` recording; returns rows pushed."""
        stream = np.asarray(stream, dtype=np.float64)
        for row in stream:
            self.push(stream_id, row)
        return int(stream.shape[0])

    def close_stream(self, stream_id: str) -> Dict[str, Any]:
        return self._checked({"op": "close", "stream": stream_id})

    def stats(self) -> Dict[str, Any]:
        return self._checked({"op": "stats"})

    def snapshot(self) -> Dict[str, Any]:
        """Fetch the server's machine-readable state (per-service stats)."""
        return self._checked({"op": "snapshot"})["snapshot"]

    def export_session(self, stream_id: str) -> Dict[str, Any]:
        """Drain and export a live session as an opaque handoff blob.

        Only honoured by servers started with ``allow_handoff=True``
        (cluster-internal worker endpoints).  The reply carries the
        stream id, its tenant key, and a base64 ``state`` string to feed
        to :meth:`import_session` on another worker.
        """
        return self._checked({"op": "export_session", "stream": stream_id})

    def import_session(self, tenant: Optional[str],
                       state: str) -> Dict[str, Any]:
        """Re-home a previously exported session onto this server."""
        return self._call("import_session", state=state, tenant=tenant)

    def metrics(self) -> str:
        """Scrape the server's Prometheus text exposition page.

        Requires the served service to run with
        ``ServiceConfig(observability=True)``; otherwise the server
        rejects the op and this raises ``RuntimeError``.
        """
        return self._checked({"op": "metrics"})["text"]

    def trace(self) -> Dict[str, Any]:
        """Fetch the server's Chrome trace snapshot (as the parsed object).

        Save it with ``json.dump`` to a ``.json`` file and open it at
        https://ui.perfetto.dev.  Requires observability *and* tracing
        (``trace_events > 0``) on the served service.
        """
        return self._checked({"op": "trace"})["trace"]

    def canary(self, artifact: str, *, fraction: float = 0.25,
               gates: Optional[Dict[str, Any]] = None,
               watch: Any = None,
               tenant: Optional[str] = None) -> Dict[str, Any]:
        """Attach a canary for the artifact at ``artifact`` (a server-side
        path); optionally attach a meta-watcher (``watch=True`` or a
        WatchPolicy mapping) to be armed by the eventual promotion."""
        return self._call("canary", artifact=artifact, fraction=fraction,
                          gates=gates, watch=watch, tenant=tenant)

    def canary_status(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        """Evaluate the attached canary; returns the report dict.

        Against a cluster router the reply is the fleet shape instead:
        ``{"verdict": ..., "workers": {name: report}}``."""
        reply = self._call("canary_status", tenant=tenant)
        return reply.get("report", reply)

    def canary_stop(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        """Detach the canary without promoting; returns its final report."""
        return self._call("canary_stop", tenant=tenant)

    def promote(self, *, force: bool = False,
                tenant: Optional[str] = None) -> Dict[str, Any]:
        """Promote the attached canary's candidate (gated unless forced)."""
        return self._call("promote", force=force, tenant=tenant)

    def rollback(self, *, reason: str = "manual",
                 tenant: Optional[str] = None) -> Dict[str, Any]:
        """Hot-swap back to the pinned previous artifact."""
        return self._call("rollback", reason=reason, tenant=tenant)

    def shutdown(self) -> Dict[str, Any]:
        return self._checked({"op": "shutdown"})

    def close(self) -> None:
        self._socket.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TCPClient(_ClientCore):
    """Blocking line-JSON client for :class:`AnomalyWireServer`.

    The CLI/smoke-flow producer -- it favours debuggability over
    throughput (one text round trip per sample).  For high-rate ingestion
    use :class:`BinaryClient` (batched float32 frames) or
    :class:`~repro.serve.AnomalyService` in process.  Despite the name it
    also connects over a Unix socket via ``uds_path=``.
    """

    protocol = "json"

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None) -> None:
        super().__init__(host, port, timeout_s, uds_path=uds_path)
        self._file = self._socket.makefile("rwb")

    def _send(self, payload: Dict[str, Any]) -> None:
        self._file.write(_json_line(payload))
        self._file.flush()

    def _read_message(self) -> Optional[Dict[str, Any]]:
        line = self._file.readline()
        if not line:
            return None
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._file.close()
        except (OSError, ValueError):
            pass
        finally:
            self._socket.close()


class BinaryClient(_ClientCore):
    """Blocking binary-protocol client (the compact ingest path).

    Speaks :mod:`repro.serve.wire` frames: samples travel as float32
    blocks, and :meth:`push_stream` batches ``chunk`` samples per PUSH
    frame -- one syscall and one ack per burst instead of per sample.
    Replies and alarm events are surfaced as the same dicts
    :class:`TCPClient` produces, so the two clients are drop-in
    interchangeable above the wire.
    """

    protocol = "binary"

    def __init__(self, host: str = "127.0.0.1", port: int = 7007,
                 timeout_s: Optional[float] = 30.0, *,
                 uds_path: Optional[Union[str, Path]] = None,
                 chunk: int = 64) -> None:
        if chunk < 1:
            raise ValueError("chunk must be at least 1")
        super().__init__(host, port, timeout_s, uds_path=uds_path)
        self.chunk = chunk
        self._decoder = wire.FrameDecoder()
        self._frames: List[wire.Frame] = []

    # -- framing (the op table's codec) ------------------------------------ #
    def _send(self, payload: Dict[str, Any]) -> None:
        self._socket.sendall(wire.encode(ops.request_frame(payload)))

    def _read_message(self) -> Optional[Dict[str, Any]]:
        while not self._frames:
            self._frames.extend(self._decoder.frames())
            if self._frames:
                break
            chunk = self._socket.recv(1 << 16)
            if not chunk:
                return None
            self._decoder.feed(chunk)
        return ops.reply_message(self._frames.pop(0))

    # -- ops whose wire shape differs from JSON ----------------------------- #
    def push(self, stream_id: str, values) -> Dict[str, Any]:
        """Push one sample (or a ready-made ``(n, channels)`` block)."""
        block = np.asarray(values, dtype=np.float64)
        if block.ndim == 1:
            block = block[None, :]
        return self._checked({"op": "push", "stream": stream_id,
                              "values": block})

    def push_stream(self, stream_id: str, stream) -> int:
        """Push a whole recording, ``chunk`` samples per binary frame."""
        stream = np.asarray(stream, dtype=np.float64)
        if stream.ndim == 1:
            stream = stream[:, None]
        for start in range(0, stream.shape[0], self.chunk):
            self.push(stream_id, stream[start:start + self.chunk])
        return int(stream.shape[0])
