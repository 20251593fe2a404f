"""Single-threaded load generator speaking the binary wire protocol.

One selector loop drives every connection: it pipelines pre-encoded PUSH
frames, reads ACKs and ALARM_EVENT frames as soon as they arrive (never
only while waiting for a reply), and optionally polls a JSON control
connection with ``metrics`` and ``stats`` requests once a second.

Replies are matched to requests per connection in FIFO order, the order
in which the servers answer.  A missing ACK, an ERROR reply or a reply of
the wrong type is one failed operation.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.serve import wire

from traffic import CLOSE, OPEN, PUSH, Stream
from workloads import WARMUP

PING = 3
clock = time.perf_counter
_RECV = 1 << 18


class _Conn:
    def __init__(self, sock: socket.socket, binary: bool) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.binary = binary
        self.decoder = wire.FrameDecoder() if binary else None
        self.lines = bytearray()
        self.out = bytearray()
        self.writing = False
        self.pending: Deque[tuple] = deque()


class PhaseLog:
    """Counts and timings of one phase, filled in while it runs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.lateness_s: List[float] = []
        self.scored = 0                  # samples past warm-up, acknowledged
        self.latencies: List[float] = []   # open loop: frame due -> alarm
        self.pushed = 0                  # samples acknowledged
        self.start = 0.0
        self.end = 0.0                   # last reply of the measured part
        self.catch_up_s = 0.0            # open loop: last due -> all scored
        self.abort_after_s: Optional[float] = None   # open loop: see run_open
        self.aborted = False             # open loop: stopped on a growing backlog
        self.metrics_rtts: List[float] = []   # control connection
        self.metrics_pages: List[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


class LoadGenerator:
    """Owns the data connections (binary) and the optional control one (JSON)."""

    def __init__(self, endpoint: tuple, data_connections: int,
                 control: bool) -> None:
        self.selector = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        for _ in range(data_connections):
            self.conns.append(self._connect(endpoint, binary=True))
        self.control = self._connect(endpoint, binary=False) if control else None
        self.streams: Dict[str, Stream] = {}
        self.log: Optional[PhaseLog] = None
        #: samples past warm-up acknowledged since the server started: what
        #: its ``samples_scored`` counter reaches once it has caught up
        self.scored_total = 0

    def _connect(self, endpoint: tuple, binary: bool) -> _Conn:
        sock = socket.create_connection(endpoint, timeout=10.0)
        conn = _Conn(sock, binary)
        self.selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def close(self) -> None:
        for conn in self._all_conns():
            self._close(conn)
        self.selector.close()

    def _close(self, conn: _Conn) -> None:
        if conn.sock.fileno() >= 0:
            self.selector.unregister(conn.sock)
            conn.sock.close()

    def shutdown_server(self) -> None:
        """Ask the server to stop over the first connection, closing the rest.

        The server closes every connection as it stops, so the others go
        first: their end-of-stream must not race the SHUTDOWN_ACK.
        """
        for conn in self._all_conns()[1:]:
            self._close(conn)
        self.binary_request(0, wire.Shutdown())
        self.close()

    # -- sending ------------------------------------------------------------- #
    # Requests are buffered per connection and written by the next ``pump``,
    # so requests issued together leave in one ``send``.
    def _send(self, conn: _Conn, data: bytes) -> None:
        conn.out += data

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        del conn.out[:sent]
        if bool(conn.out) != conn.writing:
            conn.writing = not conn.writing
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if conn.writing else 0)
            self.selector.modify(conn.sock, events, conn)

    def issue(self, request: tuple, due: Optional[float] = None) -> None:
        """Send one ``(due, conn, kind, stream, first, n, payload)`` request.

        ``due`` (clock time) is given in the open loop: alarms of the
        samples a PUSH carries are timed from it.
        """
        conn = self.conns[request[1]]
        kind = request[2]
        stream = request[3]
        if kind == OPEN:
            self.streams[stream.sid] = stream
        elif kind == CLOSE:
            stream.closing = True
        elif kind == PUSH and due is not None:
            stream.frame_firsts.append(request[4])
            stream.frame_dues.append(due)
        conn.pending.append(request)
        self.log.attempted += 1
        self._send(conn, request[6])

    def ping(self, conn_index: int) -> None:
        self.issue((0.0, conn_index, PING, None, 0, 0, wire.encode(wire.Ping())))

    def control_request(self, op: str) -> None:
        self.control.pending.append((op, clock()))
        self.log.attempted += 1
        self._send(self.control, json.dumps({"op": op}).encode() + b"\n")

    def binary_request(self, conn_index: int, frame):
        """Send one out-of-band request; return its reply frame (None if lost)."""
        conn = self.conns[conn_index]
        start = clock()
        reply: list = []
        conn.pending.append((0.0, conn_index, -1, reply, 0, 0, b""))
        self.log.attempted += 1
        self._send(conn, wire.encode(frame))
        deadline = start + 30.0
        while not reply and clock() < deadline:
            self.pump(0.05)
        if not reply:
            self.log.fail(f"no reply to {type(frame).__name__}")
            return None
        return reply[0]

    # -- receiving ----------------------------------------------------------- #
    def pump(self, timeout: float) -> None:
        """Write buffered requests, then handle what arrives within ``timeout``."""
        for conn in self._all_conns():
            if conn.out and not conn.writing:
                self._flush(conn)
        for key, mask in self.selector.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                self._read(conn)

    def _all_conns(self) -> List[_Conn]:
        return self.conns + ([self.control] if self.control else [])

    def _read(self, conn: _Conn) -> None:
        now = clock()
        while True:
            try:
                chunk = conn.sock.recv(_RECV)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("the server closed a connection")
            if conn.binary:
                conn.decoder.feed(chunk)
            else:
                conn.lines += chunk
            if len(chunk) < _RECV:
                break
        if conn.binary:
            for frame in conn.decoder.frames():
                self._on_frame(conn, frame, now)
        else:
            self._on_lines(conn, now)

    def _on_frame(self, conn: _Conn, frame, now: float) -> None:
        log = self.log
        kind_of_frame = type(frame)
        if kind_of_frame is wire.AlarmEvent:
            stream = self.streams.get(frame.stream)
            if stream is None:
                log.fail(f"alarm for unknown stream {frame.stream!r}")
                return
            stream.alarms.append((frame.index, frame.score, now))
            if stream.frame_dues:
                latency = now - stream.due_of(frame.index)
                log.latencies.append(latency)
                if log.abort_after_s is not None \
                        and latency > log.abort_after_s:
                    log.aborted = True
            return
        if not conn.pending:
            log.fail(f"unsolicited {kind_of_frame.__name__}")
            return
        request = conn.pending.popleft()
        kind = request[2]
        if kind_of_frame is wire.PushAck and kind == PUSH:
            first, n = request[4], request[5]
            if frame.accepted != n:
                log.fail(f"PUSH_ACK accepted {frame.accepted} of {n}")
                return
            request[3].acked += n
            scored = max(0, first + n - max(first, WARMUP))
            log.pushed += n
            log.scored += scored
            self.scored_total += scored
            log.end = now
        elif kind_of_frame is wire.OpenAck and kind == OPEN:
            pass
        elif kind_of_frame is wire.CloseAck and kind == CLOSE:
            request[3].close_ack = (frame.samples_pushed, frame.samples_scored)
        elif kind_of_frame is wire.PingAck and kind == PING:
            pass
        elif kind == -1 and kind_of_frame is not wire.ErrorReply:
            request[3].append(frame)
        elif kind_of_frame is wire.ErrorReply:
            log.fail(f"ERROR reply: {frame.message}")
            if kind == -1:
                request[3].append(frame)
        else:
            log.fail(f"{kind_of_frame.__name__} answered request kind {kind}")

    def _on_lines(self, conn: _Conn, now: float) -> None:
        while True:
            end = conn.lines.find(b"\n")
            if end < 0:
                return
            line = bytes(conn.lines[:end])
            del conn.lines[:end + 1]
            reply = json.loads(line)
            if "event" in reply:
                continue
            if not conn.pending:
                self.log.fail("unsolicited control reply")
                continue
            op, sent = conn.pending.popleft()
            if not reply.get("ok") or reply.get("op") != op:
                self.log.fail(f"control {op} failed: {reply.get('error')}")
                continue
            if op == "metrics":
                self.log.metrics_rtts.append(now - sent)
                self.log.metrics_pages.append(reply["text"])

    def outstanding(self) -> int:
        pending = sum(len(conn.pending) for conn in self.conns)
        if self.control is not None:
            pending += len(self.control.pending)
        return pending

    def wait_replies(self, timeout: float) -> None:
        deadline = clock() + timeout
        while self.outstanding() and clock() < deadline:
            self.pump(0.05)
        for conn in self._all_conns():
            while conn.pending:
                request = conn.pending.popleft()
                self.log.fail(f"no reply to request {request[:3] if conn.binary else request}")

    # -- phases ---------------------------------------------------------------- #
    def _control_tick(self, next_poll: float, now: float) -> float:
        if self.control is None or now < next_poll:
            return next_poll
        self.control_request("metrics")
        self.control_request("stats")
        return next_poll + 1.0

    def run_open(self, log: PhaseLog, requests: List[tuple]) -> None:
        """Send ``requests`` on their schedule; record lateness per request.

        Sending stops early (``log.aborted``) once an alarm arrives more
        than ``log.abort_after_s`` after its frame was due: the backlog is
        growing, and a deeper overload would only measure the overload.
        ``log.catch_up_s`` is the time from the last request's due time
        until the server has answered and scored everything.
        """
        self.log = log
        total = len(requests)
        lateness = np.empty(total)
        index = 0
        start = clock() + 0.01
        log.start = start
        next_poll = start
        while index < total and not log.aborted:
            now = clock()
            while index < total and start + requests[index][0] <= now:
                due = start + requests[index][0]
                lateness[index] = now - due
                self.issue(requests[index], due)
                index += 1
            next_poll = self._control_tick(next_poll, now)
            wait = 0.0
            if index < total:
                wait = max(0.0, start + requests[index][0] - clock())
                if self.control is not None:
                    wait = min(wait, max(0.0, next_poll - clock()))
            self.pump(wait)
        log.lateness_s = lateness[:index].tolist()
        self.wait_replies(30.0)
        self.drain()
        log.catch_up_s = clock() - start - requests[index - 1][0]

    def run_closed(self, log: PhaseLog, iterators: list, duration: float,
                   in_flight: int) -> None:
        """Keep ``in_flight`` requests outstanding per connection for ``duration``."""
        self.log = log
        start = clock()
        log.start = start
        log.end = start
        stop = start + duration
        next_poll = start
        while True:
            now = clock()
            if now >= stop:
                break
            for conn, iterator in zip(self.conns, iterators):
                while len(conn.pending) < in_flight:
                    self.issue(next(iterator))
            next_poll = self._control_tick(next_poll, now)
            self.pump(min(0.05, max(0.0, stop - now)))
        self.wait_replies(30.0)

    def drain(self, timeout: float = 30.0) -> float:
        """Poll ``stats`` until the server has scored every acknowledged sample.

        A PUSH_ACK means the samples were accepted, not that their windows
        were completed: under load the micro-batcher can run behind.
        Returns the seconds waited.
        """
        start = clock()
        while clock() - start < timeout:
            reply = self.binary_request(0, wire.Stats())
            if not isinstance(reply, wire.StatsAck):
                return clock() - start
            if reply.samples_scored >= self.scored_total:
                return clock() - start
            self.pump(0.005)
        self.log.fail(f"server scored fewer than {self.scored_total} samples "
                      f"within {timeout}s")
        return clock() - start

    def finish(self, streams: List[Stream]) -> None:
        """Let the server catch up, close ``streams`` and collect their alarms.

        Closing a session drains the shared batcher up to that session's
        last window in one call, so streams close only once the server has
        scored what it acknowledged.
        """
        self.drain()
        for stream in streams:
            if stream.sid in self.streams and not stream.closing:
                self.issue((0.0, stream.conn, CLOSE, stream, 0, 0,
                            wire.encode(wire.Close(stream.sid))))
        self.settle(streams)
        for stream in streams:
            self.streams.pop(stream.sid, None)

    def settle(self, streams: List[Stream], quiet_s: float = 0.1,
               max_wait_s: float = 3.0) -> None:
        """Wait for every reply, a caught-up server and the trailing alarms."""
        self.drain()
        for index in range(len(self.conns)):
            self.ping(index)
        self.wait_replies(30.0)
        # Alarm events race the close acks (the server forwards them from
        # a separate task); wait until they stop arriving.
        deadline = clock() + max_wait_s
        seen = -1
        while clock() < deadline:
            count = sum(len(stream.alarms) for stream in streams)
            if count == seen:
                break
            seen = count
            self.pump(quiet_s)
