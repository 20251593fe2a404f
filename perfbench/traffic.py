"""Seeded per-phase traffic: streams, PUSH frames and their due times.

Streams are named after the loop that owns them (``<loop>-<n>``) and may
live across several phases of that loop.  Each stream replays one
recording of the pool from a seeded offset.  An :class:`OpenLoop` gives
each open-loop phase a schedule of pre-encoded requests sorted by due
time; a closed loop gets, per connection, an endless round-robin iterator
of requests.

A request is a tuple ``(due, conn, kind, stream, first, n, payload)``:
``kind`` is one of OPEN/PUSH/CLOSE, ``first``/``n`` the sample range a
PUSH carries, ``payload`` the encoded frame.  A frame is due when its last
sample has been produced.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List

import numpy as np

from repro.serve import wire

from workloads import WARMUP, Workload

OPEN, PUSH, CLOSE = 0, 1, 2


class Stream:
    """One served stream of a phase and everything observed about it."""

    __slots__ = ("sid", "conn", "rec", "offset", "sizes", "acked",
                 "frame_firsts", "frame_dues", "closing", "close_ack",
                 "alarms")

    def __init__(self, sid: str, conn: int, rec: int, offset: int,
                 sizes: np.ndarray) -> None:
        self.sid = sid
        self.conn = conn
        self.rec = rec
        self.offset = offset
        self.sizes = sizes             # frame sizes, cycled
        self.acked = 0                 # samples whose PUSH was acknowledged
        self.frame_firsts: List[int] = []   # open loop: first index per frame
        self.frame_dues: List[float] = []   # open loop: its due time (clock)
        self.closing = False           # a CLOSE was sent
        self.close_ack = None          # (samples_pushed, samples_scored)
        self.alarms: List[tuple] = []  # (index, score, receive time)

    def due_of(self, index: int) -> float:
        """Due time of the frame that carried sample ``index``."""
        return self.frame_dues[bisect.bisect_right(self.frame_firsts, index) - 1]


class Traffic:
    """Builds the phases of one run from the workload and its seed."""

    def __init__(self, workload: Workload, recordings: List[np.ndarray],
                 seed: int) -> None:
        self.workload = workload
        self.recordings = recordings
        self.rng = np.random.default_rng(seed)

    # -- streams ----------------------------------------------------------- #
    def _stream(self, phase: str, number: int, conn: int) -> Stream:
        # Streams cycle through the pool, so a phase covers it evenly.
        rec = number % len(self.recordings)
        offset = int(self.rng.integers(self.recordings[rec].shape[0]))
        lo, hi = self.workload.frame_sizes
        sizes = self.rng.integers(lo, hi + 1, size=4096)
        return Stream(f"{phase}-{number}", conn, rec, offset, sizes)

    def _block(self, stream: Stream, first: int, n: int) -> np.ndarray:
        rec = self.recordings[stream.rec]
        rows = (stream.offset + first + np.arange(n)) % rec.shape[0]
        return rec[rows]

    def push_payload(self, stream: Stream, first: int, n: int) -> bytes:
        return wire.encode(wire.Push(stream.sid, self._block(stream, first, n)))

    def streams(self, phase: str) -> List[Stream]:
        """Long-lived streams spread round-robin over the data connections."""
        conns = self.workload.data_connections
        return [self._stream(phase, k, k % conns)
                for k in range(self.workload.streams)]

    # -- open loop ----------------------------------------------------------- #
    def _sample_times(self, rate: float, duration: float,
                      lane: float) -> np.ndarray:
        """Production times of one producer's samples within ``duration``.

        Periodic producers keep evenly staggered clocks (``lane`` in [0, 1)
        places this one's frames within the frame period) with up to one
        sample period of jitter, so frames never arrive in lockstep with
        the server's timers.
        """
        if self.workload.arrival == "periodic":
            period = self.workload.frame_sizes[1] / rate
            count = int(duration * rate)
            times = (lane * period + np.arange(count) / rate
                     + self.rng.uniform(0.0, 1.0 / rate, count))
            return times[times <= duration]
        gaps = self.rng.exponential(1.0 / rate, size=int(duration * rate * 1.5) + 16)
        times = np.cumsum(gaps)
        return times[times <= duration]

    def frames(self, stream: Stream, times: np.ndarray, first: int,
               frame: int) -> tuple:
        """PUSH requests for the samples produced at ``times``, from index
        ``first`` and frame number ``frame``; returns (requests, next index,
        next frame number)."""
        requests = []
        index, stop = first, first + len(times)
        while index < stop:
            n = min(int(stream.sizes[frame % len(stream.sizes)]), stop - index)
            frame += 1
            requests.append((float(times[index - first + n - 1]), stream.conn,
                             PUSH, stream, index, n,
                             self.push_payload(stream, index, n)))
            index += n
        return requests, index, frame

    # -- closed loop --------------------------------------------------------- #
    def closed_requests(self, phase: str) -> tuple:
        """``(streams, iterators)``: one endless request iterator per connection.

        ``streams`` is filled in as the iterators open new streams.
        """
        workload = self.workload
        streams: List[Stream] = []
        if workload.lifetime_samples == 0:
            streams.extend(self.streams(phase))
            iterators = [self._round_robin([s for s in streams if s.conn == c])
                         for c in range(workload.data_connections)]
        else:
            iterators = [self._churn(phase, streams)]
        return streams, iterators

    def _round_robin(self, streams: List[Stream]) -> Iterator[tuple]:
        for stream in streams:
            yield (0.0, stream.conn, OPEN, stream, 0, 0,
                   wire.encode(wire.Open(stream.sid)))
        cursor = [0] * len(streams)
        frame = 0
        while True:
            for k, stream in enumerate(streams):
                n = int(stream.sizes[frame % len(stream.sizes)])
                first = cursor[k]
                cursor[k] += n
                yield (0.0, stream.conn, PUSH, stream, first, n,
                       self.push_payload(stream, first, n))
            frame += 1

    def first_lifetime(self, slot: int) -> int:
        """Samples the first stream of churn ``slot`` pushes before closing.

        Each slot's first stream is cut short by the slot's share of a
        lifetime, so the slots' streams open, warm up and close staggered
        rather than all at once, and every phase sees streams of every age.
        """
        lifetime = self.workload.lifetime_samples
        return lifetime - slot * lifetime // self.workload.streams

    def _churn(self, phase: str, streams: List[Stream]) -> Iterator[tuple]:
        lifetime = self.workload.lifetime_samples
        slots = []
        number = 0
        while True:
            for slot in range(self.workload.streams):
                limit = lifetime
                if slot == len(slots):
                    slots.append(None)
                    limit = self.first_lifetime(slot)
                state = slots[slot]
                if state is None:
                    stream = self._stream(phase, number, 0)
                    number += 1
                    streams.append(stream)
                    slots[slot] = [stream, 0, 0, limit]
                    yield (0.0, 0, OPEN, stream, 0, 0,
                           wire.encode(wire.Open(stream.sid)))
                    continue
                stream, first, frame, limit = state
                if first >= limit:
                    slots[slot] = None
                    yield (0.0, 0, CLOSE, stream, 0, 0,
                           wire.encode(wire.Close(stream.sid)))
                    continue
                n = min(int(stream.sizes[frame % len(stream.sizes)]),
                        limit - first)
                state[1] = first + n
                state[2] = frame + 1
                yield (0.0, 0, PUSH, stream, first, n,
                       self.push_payload(stream, first, n))


class OpenLoop:
    """Open-loop streams that live on from one phase to the next.

    :meth:`schedule` returns the next phase's requests, with due times
    relative to its start; long-lived streams continue where the previous
    phase left them (only the first phase pays their warm-up), and churn
    slots keep chaining short-lived streams.
    """

    def __init__(self, traffic: Traffic, phase: str) -> None:
        self.traffic = traffic
        self.phase = phase
        workload = traffic.workload
        #: every stream opened so far
        self.streams: List[Stream] = []
        self._number = 0
        self._opened: set = set()
        # Per producer: [stream or None (open the next one), index, frame,
        # samples the stream pushes before it closes].
        if workload.lifetime_samples == 0:
            self.streams = traffic.streams(phase)
            self._lanes = [[stream, 0, 0, 0] for stream in self.streams]
        else:
            self._lanes = [[None, 0, 0, traffic.first_lifetime(slot)]
                           for slot in range(workload.streams)]

    def _open(self, lane: list, due: float, requests: List[tuple]) -> None:
        stream = self.traffic._stream(self.phase, self._number, 0)
        self._number += 1
        self.streams.append(stream)
        lane[:3] = [stream, 0, 0]
        requests.append((due, 0, OPEN, stream, 0, 0,
                         wire.encode(wire.Open(stream.sid))))

    def rewind(self) -> None:
        """Continue each long-lived stream after its last acknowledged sample.

        A phase that stopped early sent only part of its schedule; the
        streams' next frames must follow what the server received.
        """
        assert self.traffic.workload.lifetime_samples == 0
        for lane in self._lanes:
            lane[1] = lane[0].acked

    def schedule(self, rate: float, duration: float) -> List[tuple]:
        traffic = self.traffic
        lifetime = traffic.workload.lifetime_samples
        per_stream = rate / len(self._lanes)
        requests: List[tuple] = []
        for number, lane in enumerate(self._lanes):
            times = traffic._sample_times(per_stream, duration,
                                          number / len(self._lanes))
            if lifetime == 0:
                stream, index, frame, _ = lane
                if stream.sid not in self._opened:
                    self._opened.add(stream.sid)
                    requests.append((0.0, stream.conn, OPEN, stream, 0, 0,
                                     wire.encode(wire.Open(stream.sid))))
                pushes, lane[1], lane[2] = traffic.frames(stream, times,
                                                          index, frame)
                requests.extend(pushes)
                continue
            taken = 0
            while taken < len(times):
                if lane[0] is None:
                    self._open(lane, float(times[taken]), requests)
                stream, index, frame, limit = lane
                count = min(limit - index, len(times) - taken)
                pushes, lane[1], lane[2] = traffic.frames(
                    stream, times[taken:taken + count], index, frame)
                requests.extend(pushes)
                taken += count
                if lane[1] == limit:
                    requests.append((float(times[taken - 1]), 0, CLOSE,
                                     stream, 0, 0,
                                     wire.encode(wire.Close(stream.sid))))
                    lane[0] = None
                    lane[3] = lifetime
        # Stable sort: an OPEN precedes its stream's first PUSH at equal due.
        order = sorted(range(len(requests)),
                       key=lambda i: (requests[i][0], requests[i][2] != OPEN, i))
        return [requests[i] for i in order]


def expected_alarms(stream: Stream, reference) -> np.ndarray:
    """Indices the offline reference alarms on, over the acknowledged prefix."""
    alarms = reference.alarms[stream.rec]
    indices = np.arange(WARMUP, max(WARMUP, stream.acked))
    positions = (stream.offset + indices) % alarms.shape[0]
    return indices[alarms[positions]]


def reference_score(stream: Stream, reference, index: int) -> float:
    scores = reference.scores[stream.rec]
    return float(scores[(stream.offset + index) % scores.shape[0]])
