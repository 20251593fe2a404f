"""Per-layer metrics of the traced nominal phase.

Spans come from ``tracing/spans.py`` (one file per serving process); only
spans that start inside the phase's window count.  ``self`` time is a
span's busy time minus the busy time of its direct children.  Server-side
counters the spans cannot see (batcher queue delay, router proxy counts,
the metrics page) come from the ``snapshot`` and ``metrics`` ops, read
before and after the phase.  Metrics of a layer a workload does not use
(the router and obs on single-process servers) read 0.

Which end-to-end metric each layer should move, and on which workload
(on the workloads not named, the prediction is no change).
``sensor_fleet`` runs by name but is not among ``BENCHMARK.json``'s
workloads (see ``workloads.py``); its predictions hold for manual runs:

=================  ===============================================  =========================================
layer              metrics                                          should move
=================  ===============================================  =========================================
serve.wire         wire.*                                           capacity_sps, cpu_ms_per_ksample:
                                                                    sensor_fleet
serve.tcp          tcp.requests.<op>, tcp.self_us_per_frame         capacity_sps: sensor_fleet
serve.service      service.push_self_us, service.push_wait_ms_p99   alarm_latency_p99_ms: sensor_fleet
serve.service      service.open/close_session_ms                    capacity_sps: sharded_churn
serve.session      session.*                                        alarm_latency_p50_ms: robot_cell;
                                                                    cpu_ms_per_ksample: sensor_fleet
serve.batcher      batcher.*                                        capacity_sps: sensor_fleet;
                                                                    alarm_latency_p50_ms: robot_cell
core.detector      detector.*                                       capacity_sps: sensor_fleet
nn.fastpath/quant  plan.*                                           alarm_latency_p50_ms, cpu_ms_per_ksample:
                                                                    robot_cell; capacity_sps: sensor_fleet
cluster.router     router.*, worker.cpu_us_per_sample               capacity_sps, alarm_latency_p99_ms:
                                                                    sharded_churn
obs                obs.*                                            cpu_ms_per_ksample: sharded_churn
=================  ===============================================  =========================================
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.serve import wire

SHAPE_NOTE = ("plan.flops_per_row and plan.bytes_per_row are computed from "
              "the serving plan's layer shapes for one full-window forward "
              "(input + activations + weights read once), not measured")

TCP_OPS = ("open", "push", "close", "ping", "stats", "metrics", "snapshot")
ROUTER_OPS = ("open", "push", "close")


class Probes:
    """Reads server counters around the traced nominal phase."""

    def __init__(self) -> None:
        self.snapshot: dict = {}
        self.pages: List[str] = []

    def before(self, gen, log) -> None:
        if gen.control is not None:
            gen.control_request("metrics")
            gen.wait_replies(30.0)

    def after(self, gen, log) -> None:
        if gen.control is not None:
            gen.control_request("metrics")
            gen.wait_replies(30.0)
            self.pages = [log.metrics_pages[0], log.metrics_pages[-1]]
        reply = gen.binary_request(0, wire.Snapshot())
        if isinstance(reply, wire.SnapshotAck):
            self.snapshot = json.loads(reply.json_text)


def load_spans(directory: Path) -> List[dict]:
    processes = []
    for path in sorted(directory.glob("spans-*.npz")):
        with np.load(path) as data:
            processes.append({
                "pid": int(path.stem.split("-")[1]),
                "role": str(data["role"]),
                "spans": data["spans"],
                "names": [str(n) for n in data["names"]],
                "keys": [str(k) for k in data["keys"]],
                "dropped": int(data["dropped"]),
            })
    return processes


class _Spans:
    """All processes' spans inside a window, with per-process child sums."""

    def __init__(self, processes: List[dict], window: tuple) -> None:
        lo, hi = (int(t * 1e9) for t in window)
        self.parts = []
        for proc in processes:
            spans = proc["spans"]
            if not len(spans):
                continue
            # Children's busy time summed per parent id (over all spans, so
            # a child that started inside a parent near the edge still counts).
            child_busy = np.bincount(spans[:, 5], weights=spans[:, 3],
                                     minlength=int(spans[:, 4].max()) + 1)
            inside = (spans[:, 1] >= lo) & (spans[:, 1] <= hi)
            self.parts.append((proc, spans[inside], child_busy))

    def select(self, name: str):
        """Rows of every process for span ``name`` plus their child busy sums."""
        rows, children, keys = [], [], []
        for proc, spans, child_busy in self.parts:
            if name not in proc["names"]:
                continue
            picked = spans[spans[:, 0] == proc["names"].index(name)]
            rows.append(picked)
            children.append(child_busy[picked[:, 4]])
            keys.extend(proc["keys"][k] for k in picked[:, 6])
        if not rows:
            empty = np.empty((0, 8), dtype=np.int64)
            return empty, np.empty(0), []
        return np.concatenate(rows), np.concatenate(children), keys

    def outermost(self, name: str):
        """Spans of ``name`` whose parent is not itself a ``name`` span."""
        rows = []
        for proc, spans, _ in self.parts:
            if name not in proc["names"]:
                continue
            code = proc["names"].index(name)
            picked = spans[spans[:, 0] == code]
            same = set(picked[:, 4].tolist())
            rows.append(picked[[p not in same for p in picked[:, 5].tolist()]])
        return np.concatenate(rows) if rows else np.empty((0, 8), dtype=np.int64)

    def root_busy_s(self) -> float:
        return sum(float(spans[spans[:, 5] == 0, 3].sum())
                   for _, spans, _ in self.parts) / 1e9


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _histogram_quantile(states: List[dict], q: float) -> float:
    """Quantile of merged StreamingHistogram states (linear within a bin).

    ``counts[i]`` covers ``[edges[i-1], edges[i])``; the first and last
    counts are the open under/overflow bins, pinned to the outer edges.
    """
    if not states:
        return 0.0
    edges = np.asarray(states[0]["edges"], dtype=float)
    counts = np.sum([np.asarray(s["counts"], dtype=float) for s in states], axis=0)
    total = counts.sum()
    if total == 0:
        return 0.0
    cumulative = np.cumsum(counts)
    target = q * total
    index = int(np.searchsorted(cumulative, target))
    low = edges[max(index - 1, 0)]
    high = edges[min(index, len(edges) - 1)]
    share = (target - (cumulative[index] - counts[index])) / counts[index]
    return float(low + share * (high - low))


def _find_states(node, key: str, found: List[dict]) -> List[dict]:
    if isinstance(node, dict):
        for name, value in node.items():
            if name == key and isinstance(value, dict) and "counts" in value:
                found.append(value)
            else:
                _find_states(value, key, found)
    elif isinstance(node, list):
        for value in node:
            _find_states(value, key, found)
    return found


def _counter(page: str, family: str, labels: str = "") -> float:
    total = 0.0
    pattern = re.compile(rf"^{re.escape(family)}(\{{[^}}]*\}})?\s+(\S+)$", re.M)
    for match in pattern.finditer(page):
        if labels in (match.group(1) or ""):
            total += float(match.group(2))
    return total


def plan_shape_costs(detector) -> tuple:
    """(flops, bytes) of one full-window forward of the serving plan."""
    config = detector.config
    int8 = type(detector).__name__.startswith("Quantized")
    weight_bytes = 1 if int8 else 8
    activation_bytes = 4 if int8 else 8
    channels, length = config.n_channels, config.window
    flops = 0
    moved = channels * length * 8                 # the float64 input window
    for out_channels in config.feature_map_schedule():
        length //= 2                               # kernel 2, stride 2
        flops += 2 * 2 * channels * out_channels * length
        moved += 2 * channels * out_channels * weight_bytes
        moved += out_channels * length * activation_bytes
        channels = out_channels
    features = channels * length
    for _head in ("mean", "log_var"):
        flops += 2 * features * config.n_channels
        moved += features * config.n_channels * weight_bytes
        moved += config.n_channels * activation_bytes
    return float(flops), float(moved)


def per_layer(run, traced: dict, processes: List[dict], probes: Probes,
              router_pid: Optional[int]) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``router_pid`` is the shard router's process under ``--workers`` (the
    rest of the serving CPU is the workers'), ``None`` without a router.
    """
    spans = _Spans(processes, traced["window"])
    log = traced["log"]
    samples = max(log.pushed, 1)
    metrics: Dict[str, tuple] = {}

    decode, _, _ = spans.select("wire.decode")
    frames_in = int((decode[:, 7] == 1).sum())
    feed, _, _ = spans.select("wire.feed")
    encode, _, _ = spans.select("wire.encode")
    metrics["wire.frames_in"] = (float(frames_in), "count")
    metrics["wire.bytes_in_per_sample"] = (float(feed[:, 7].sum()) / samples, "B")
    metrics["wire.decode_us_per_frame"] = (
        _ratio(float(decode[:, 2].sum() - decode[:, 1].sum()) / 1e3, frames_in), "us")
    metrics["wire.encode_us_per_frame"] = (_mean(encode[:, 3]) / 1e3, "us")

    _, _, ops = spans.select("tcp.request")
    for op in TCP_OPS:
        metrics[f"tcp.requests.{op}"] = (float(ops.count(op)), "count")
    cpu_s = sum(traced["cpu_s"].values())
    metrics["tcp.self_us_per_frame"] = (
        _ratio((cpu_s - spans.root_busy_s()) * 1e6, frames_in), "us")

    push, push_children, _ = spans.select("service.push")
    metrics["service.push_self_us"] = (
        _mean(push[:, 3] - push_children) / 1e3, "us")
    waits = (push[:, 2] - push[:, 1] - push[:, 3]) / 1e6
    metrics["service.push_wait_ms_p99"] = (
        float(np.quantile(waits, 0.99)) if len(waits) else 0.0, "ms")
    opened, _, _ = spans.select("service.open_session")
    closed, _, _ = spans.select("service.close_session")
    metrics["service.open_session_ms"] = (_mean(opened[:, 2] - opened[:, 1]) / 1e6, "ms")
    metrics["service.close_session_ms"] = (_mean(closed[:, 2] - closed[:, 1]) / 1e6, "ms")

    submit, _, _ = spans.select("session.submit")
    metrics["session.submit_us_per_sample"] = (_mean(submit[:, 3]) / 1e3, "us")
    requests = submit[submit[:, 7] >= 0]
    metrics["session.prescored_share"] = (
        _ratio(float((requests[:, 7] == 1).sum()), len(requests)), "share")

    flush, _, _ = spans.select("batcher.flush")
    flush = flush[flush[:, 7] > 0]
    rows = float(flush[:, 7].sum())
    metrics["batcher.rows_per_flush"] = (_mean(flush[:, 7]), "rows")
    metrics["batcher.flush_us_per_row"] = (_ratio(float(flush[:, 3].sum()) / 1e3, rows), "us")
    scoring = spans.outermost("detector.score_windows_batch")
    gemm_parents = set(scoring[:, 5].tolist())
    skipped = sum(1 for span in flush[:, 4].tolist() if span not in gemm_parents)
    metrics["batcher.gemm_skipped_share"] = (_ratio(skipped, len(flush)), "share")
    states = _find_states(probes.snapshot, "queue_delay_histogram", [])
    metrics["batcher.queue_delay_p50_ms"] = (_histogram_quantile(states, 0.5) * 1e3, "ms")
    metrics["batcher.queue_delay_p99_ms"] = (_histogram_quantile(states, 0.99) * 1e3, "ms")

    score_rows = float(scoring[:, 7].sum())
    metrics["detector.rows_per_call"] = (_mean(scoring[:, 7]), "rows")
    metrics["detector.score_us_per_row"] = (
        _ratio(float(scoring[:, 3].sum()) / 1e3, score_rows), "us")

    forward, _, _ = spans.select("plan.forward")
    plan_push, _, _ = spans.select("plan.push")
    push_many, _, _ = spans.select("plan.push_many")
    metrics["plan.forward_us_per_row"] = (
        _ratio(float(forward[:, 3].sum()) / 1e3, float(forward[:, 7].sum())), "us")
    metrics["plan.push_us"] = (_mean(plan_push[:, 3]) / 1e3, "us")
    metrics["plan.push_many_rows"] = (float(push_many[:, 7].sum()), "rows")
    flops, moved = plan_shape_costs(run.detector)
    metrics["plan.flops_per_row"] = (flops, "flop")
    metrics["plan.bytes_per_row"] = (moved, "B")

    router_cpu = traced["cpu_s"].get(router_pid, 0.0)
    metrics["router.cpu_us_per_sample"] = (router_cpu * 1e6 / samples, "us")
    metrics["worker.cpu_us_per_sample"] = ((cpu_s - router_cpu) * 1e6 / samples, "us")
    before, after = probes.pages if probes.pages else ("", "")
    for op in ROUTER_OPS:
        family = "repro_cluster_requests_proxied_total"
        label = f'op="{op}"'
        metrics[f"router.requests_proxied.{op}"] = (
            _counter(after, family, label) - _counter(before, family, label), "count")
    family = "repro_cluster_alarm_events_forwarded_total"
    metrics["router.alarm_events_forwarded"] = (
        _counter(after, family) - _counter(before, family), "count")

    rtts = log.metrics_rtts
    pages = log.metrics_pages
    metrics["obs.metrics_op_ms"] = (float(np.median(rtts)) * 1e3 if rtts else 0.0, "ms")
    metrics["obs.metrics_page_bytes"] = (
        float(np.median([len(p.encode()) for p in pages])) if pages else 0.0, "B")
    return metrics
