"""In-memory span recorder wrapped around the serving stack's public entry points.

:func:`install` replaces methods of ``repro`` classes with wrappers that
record one span per call: name, start, end, busy time, parent span and a
key (stream id or request op).  Nothing in ``src/`` is edited; the wrappers
live only in a traced process.

Three wrapper shapes cover the stack:

* plain calls: busy time is the call's duration;
* generators (``FrameDecoder.frames``): one span per ``next()``, so the
  consumer's work between frames is not charged to decoding;
* coroutines (``AnomalyService.push`` and friends): the wrapper drives the
  coroutine step by step, so busy time counts only the steps it ran and
  ``end - start - busy`` is the time it spent suspended (waiting on
  backpressure).  The parent stack is pushed and popped around each step,
  so spans of interleaved tasks never adopt each other.

Spans stay in memory and are written as one ``.npz`` per process at exit
(normal exit or SIGTERM) into the directory named by ``PERFBENCH_SPANS``.
"""

from __future__ import annotations

import atexit
import functools
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ENV = "PERFBENCH_SPANS"
#: memory bound of one process's recording
MAX_SPANS = 1_000_000
_now = time.perf_counter_ns


class Recorder:
    """Span storage of one process."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.names: Dict[str, int] = {}
        self.keys: Dict[str, int] = {"": 0}
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.next_id = 1
        self.dropped = 0
        self.written = False

    def code(self, table: Dict[str, int], text: str) -> int:
        value = table.get(text)
        if value is None:
            value = table[text] = len(table)
        return value

    def add(self, name: int, start: int, end: int, busy: int, span: int,
            parent: int, key: int, rows: int) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, busy, span, parent, key, rows))
        else:
            self.dropped += 1

    def write(self) -> None:
        if self.written:
            return
        self.written = True
        data = np.array(self.spans, dtype=np.int64).reshape(-1, 8)
        names = sorted(self.names, key=self.names.get)
        keys = sorted(self.keys, key=self.keys.get)
        path = self.out_dir / f"spans-{os.getpid()}.npz"
        np.savez(path, spans=data, names=np.array(names), keys=np.array(keys),
                 role=np.array(self.role), dropped=np.array(self.dropped))


def _plain(recorder: Recorder, name: str, original: Callable,
           key: Optional[Callable] = None,
           rows: Optional[Callable] = None) -> Callable:
    code = recorder.code(recorder.names, name)
    stack = recorder.stack

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.next_id
        recorder.next_id += 1
        parent = stack[-1] if stack else 0
        stack.append(span)
        start = _now()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = _now()
            stack.pop()
            recorder.add(code, start, end, end - start, span, parent,
                         recorder.code(recorder.keys, key(args)) if key else 0,
                         rows(args, result) if rows else 0)
    return wrapper


def _generator(recorder: Recorder, name: str, original: Callable) -> Callable:
    code = recorder.code(recorder.names, name)
    stack = recorder.stack

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        while True:
            span = recorder.next_id
            recorder.next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = _now()
            try:
                item = next(inner)
            except StopIteration:
                end = _now()
                stack.pop()
                recorder.add(code, start, end, end - start, span, parent, 0, 0)
                return
            end = _now()
            stack.pop()
            recorder.add(code, start, end, end - start, span, parent, 0, 1)
            yield item
    return wrapper


class _Stepped:
    """Awaitable that runs a coroutine one step at a time, timing each step."""

    __slots__ = ("recorder", "coro", "code", "key")

    def __init__(self, recorder: Recorder, coro, code: int, key: int) -> None:
        self.recorder = recorder
        self.coro = coro
        self.code = code
        self.key = key

    def __await__(self):
        recorder = self.recorder
        stack = recorder.stack
        coro = self.coro
        span = recorder.next_id
        recorder.next_id += 1
        parent = stack[-1] if stack else 0
        start = _now()
        busy = 0
        value = None
        error: Optional[BaseException] = None
        while True:
            stack.append(span)
            step = _now()
            try:
                if error is None:
                    signal_ = coro.send(value)
                else:
                    signal_ = coro.throw(error)
            except StopIteration as stop:
                end = _now()
                stack.pop()
                recorder.add(self.code, start, end, busy + end - step, span,
                             parent, self.key, 0)
                return stop.value
            except BaseException:
                end = _now()
                stack.pop()
                recorder.add(self.code, start, end, busy + end - step, span,
                             parent, self.key, -1)
                raise
            busy += _now() - step
            stack.pop()
            try:
                value = yield signal_
                error = None
            except BaseException as thrown:   # cancellation is re-thrown inward
                value = None
                error = thrown


def _coroutine(recorder: Recorder, name: str, original: Callable,
               key: Optional[Callable] = None) -> Callable:
    code = recorder.code(recorder.names, name)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        key_code = recorder.code(recorder.keys, key(args)) if key else 0
        return await _Stepped(recorder, original(*args, **kwargs), code,
                              key_code)
    return wrapper


def _counter(recorder: Recorder, name: str, original: Callable,
             key: Callable) -> Callable:
    """Zero-length span per call of a coroutine method (a timestamped count)."""
    code = recorder.code(recorder.names, name)
    stack = recorder.stack

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        stamp = _now()
        span = recorder.next_id
        recorder.next_id += 1
        recorder.add(code, stamp, stamp, 0, span, stack[-1] if stack else 0,
                     recorder.code(recorder.keys, key(args)), 0)
        return await original(*args, **kwargs)
    return wrapper


def _rows0(args, result) -> int:
    return int(args[1].shape[0])


def install(out_dir: Path, role: str) -> Recorder:
    """Wrap the serving stack's entry points; return the process recorder."""
    from repro.core import detector as core_detector
    from repro.core import quantized as core_quantized
    from repro.nn import fastpath, quant
    from repro.serve import batcher, service, session, tcp, wire

    recorder = Recorder(out_dir, role)

    def patch(owner, attr: str, wrap) -> None:
        setattr(owner, attr, wrap(getattr(owner, attr)))

    patch(wire.FrameDecoder, "feed", lambda f: _plain(
        recorder, "wire.feed", f, rows=lambda a, r: len(a[1])))
    patch(wire.FrameDecoder, "frames",
          lambda f: _generator(recorder, "wire.decode", f))
    patch(wire, "encode", lambda f: _plain(recorder, "wire.encode", f))
    patch(tcp.AnomalyWireServer, "_dispatch", lambda f: _counter(
        recorder, "tcp.request", f, key=lambda a: str(a[1].get("op"))))
    for method in ("push", "open_session", "close_session"):
        patch(service.AnomalyService, method, lambda f, m=method: _coroutine(
            recorder, f"service.{m}", f, key=lambda a: str(a[1])))

    def submit_rows(args, result) -> int:
        if result is None:
            return -1
        return 1 if result.score is not None else 0

    patch(session.ScoringSession, "submit", lambda f: _plain(
        recorder, "session.submit", f, rows=submit_rows))
    patch(batcher.MicroBatcher, "flush", lambda f: _plain(
        recorder, "batcher.flush", f, rows=lambda a, r: len(r or ())))
    for owner in (core_detector.AnomalyDetector, core_detector.VaradeDetector,
                  core_quantized.QuantizedVaradeDetector):
        if "score_windows_batch" in vars(owner):
            patch(owner, "score_windows_batch", lambda f: _plain(
                recorder, "detector.score_windows_batch", f, rows=_rows0))
    for plan in (fastpath.FastForwardPlan, quant.QuantizedForwardPlan):
        patch(plan, "forward", lambda f: _plain(
            recorder, "plan.forward", f, rows=_rows0))
    for plan in (fastpath.IncrementalForwardPlan, quant.IncrementalQuantizedPlan):
        patch(plan, "push", lambda f: _plain(recorder, "plan.push", f))
        patch(plan, "push_many", lambda f: _plain(
            recorder, "plan.push_many", f, rows=_rows0))

    atexit.register(recorder.write)

    def on_term(signum, frame) -> None:
        recorder.write()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    return recorder


def install_from_environment() -> Optional[Recorder]:
    """Install when ``PERFBENCH_SPANS`` names a directory (traced processes)."""
    out_dir = os.environ.get(ENV)
    if not out_dir:
        return None
    command = " ".join(getattr(sys, "orig_argv", sys.argv))
    role = "worker" if "repro.cluster.worker" in command else "serve"
    return install(Path(out_dir), role)
