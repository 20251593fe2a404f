"""Shard-placement determinism: a cluster must be invisible in the scores.

The contract under test is the ISSUE's acceptance gate: scores, alarms and
close summaries are **bit-identical** between a plain single-process
service and a sharded cluster -- for any worker count, any ring
granularity (placement independence), and across live worker join/leave
rebalances mid-stream.  Everything here drives real worker subprocesses
through the real router; nothing is mocked.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterHarness, RouterConfig
from repro.pipeline import Pipeline
from repro.serve import (AnomalyWireServer, BinaryClient, ServiceConfig,
                         TCPClient, TCPTransport)

from cluster_helpers import N_CHANNELS, worker_config

N_STREAMS = 8
SAMPLES = 50
HALF = SAMPLES // 2


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(3)
    # float32 is what the binary wire carries; generating float32 up front
    # keeps the JSON leg bit-comparable with the binary legs
    return {f"s{i}": rng.normal(size=(SAMPLES, N_CHANNELS)).astype("float32")
            for i in range(N_STREAMS)}


def _collect(client, streams, alarms):
    """Close every stream, then drain trailing alarm events."""
    summaries = {sid: client.close_stream(sid) for sid in streams}
    time.sleep(0.3)
    client.ping()        # one more round trip flushes buffered events
    for event in client.alarms:
        alarms[event["stream"]].append(
            (event["index"], event["score"], event["threshold"]))
    return summaries


def _run_cluster(artifact, n_workers, *, client_type=BinaryClient,
                 virtual_nodes=None, rebalance=None, streams=None):
    """Push every stream through an n-worker cluster; optionally reshape
    the fleet halfway through."""
    router_config = RouterConfig() if virtual_nodes is None \
        else RouterConfig(virtual_nodes=virtual_nodes)
    configs = [worker_config(f"w{i}", artifact) for i in range(n_workers)]
    alarms = {sid: [] for sid in streams}
    with ClusterHarness(configs, router_config=router_config) as cluster:
        with client_type(port=cluster.port) as client:
            for sid in streams:
                client.open(sid)
            for sid, data in streams.items():
                client.push_stream(sid, data[:HALF])
            if rebalance == "join":
                cluster.add_worker(worker_config(f"w{n_workers}", artifact))
            elif rebalance == "leave":
                cluster.remove_worker("w0")
            for sid, data in streams.items():
                client.push_stream(sid, data[HALF:])
            summaries = _collect(client, streams, alarms)
            snapshot = client.snapshot()
    return alarms, summaries, snapshot


def _run_single(artifact, streams, client_type=BinaryClient):
    """The ground truth: one AnomalyService behind a plain wire server."""
    service = Pipeline.load(artifact).deploy_service(
        config=ServiceConfig(max_batch=8, max_delay_ms=2.0))
    server = AnomalyWireServer(service, TCPTransport("127.0.0.1", 0))
    ready = threading.Event()
    result = {}

    def run():
        async def main():
            server_ready = asyncio.Event()
            task = asyncio.create_task(server.serve_forever(ready=server_ready))
            await server_ready.wait()
            result["port"] = server.bound_port
            ready.set()
            await task

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(30.0)
    alarms = {sid: [] for sid in streams}
    try:
        with client_type(port=result["port"]) as client:
            for sid in streams:
                client.open(sid)
            for sid, data in streams.items():
                client.push_stream(sid, data)
            summaries = _collect(client, streams, alarms)
            # request_stop() from this (foreign) thread would not wake the
            # server's event loop; a polite wire-level shutdown does.
            client.shutdown()
    finally:
        thread.join(30.0)
    return alarms, summaries


@pytest.fixture(scope="module")
def single_run(artifact, streams):
    alarms, summaries = _run_single(artifact, streams)
    assert sum(len(a) for a in alarms.values()) > 0, \
        "the reference run raised no alarms; every parity check below " \
        "would pass vacuously"
    return alarms, summaries


def _comparable(summaries):
    """The deterministic slice of a close summary (drops timing fields)."""
    return {sid: {"samples_pushed": s["samples_pushed"],
                  "samples_scored": s["samples_scored"],
                  "samples_dropped": s["samples_dropped"],
                  "alarms": s.get("alarms")}
            for sid, s in summaries.items()}


class TestWorkerCountParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_cluster_matches_single_service(self, artifact, streams,
                                            single_run, n_workers):
        base_alarms, base_summaries = single_run
        alarms, summaries, snapshot = _run_cluster(artifact, n_workers,
                                                   streams=streams)
        assert alarms == base_alarms
        assert _comparable(summaries) == _comparable(base_summaries)
        assert snapshot["cluster"]["workers_live"] == n_workers

    def test_json_protocol_leg_matches_too(self, artifact, streams,
                                           single_run):
        """The router proxies both wire protocols; the JSON path must be
        just as invisible (float64 repr round-trips through the trunk)."""
        base_alarms, _ = single_run
        alarms, _, _ = _run_cluster(artifact, 2, client_type=TCPClient,
                                    streams=streams)
        assert alarms == base_alarms

    def test_placement_independence_across_ring_granularity(
            self, artifact, streams, single_run):
        """Different virtual-node counts cut the ring differently, so the
        same streams land on different workers -- the scores must not
        care where a stream lives."""
        base_alarms, _ = single_run
        alarms, _, _ = _run_cluster(artifact, 2, virtual_nodes=8,
                                    streams=streams)
        assert alarms == base_alarms


class TestRebalanceParity:
    def test_worker_join_mid_stream_is_bit_identical(self, artifact,
                                                     streams, single_run):
        base_alarms, base_summaries = single_run
        alarms, summaries, snapshot = _run_cluster(
            artifact, 2, rebalance="join", streams=streams)
        assert alarms == base_alarms
        assert _comparable(summaries) == _comparable(base_summaries)
        assert snapshot["cluster"]["workers_live"] == 3
        assert snapshot["cluster"]["rebalances"] == 1
        assert snapshot["cluster"]["sessions_rehomed"] > 0, \
            "a 2->3 ring re-slice should move at least one of 8 streams"

    def test_worker_leave_mid_stream_is_bit_identical(self, artifact,
                                                      streams, single_run):
        base_alarms, base_summaries = single_run
        alarms, summaries, snapshot = _run_cluster(
            artifact, 3, rebalance="leave", streams=streams)
        assert alarms == base_alarms
        assert _comparable(summaries) == _comparable(base_summaries)
        assert snapshot["cluster"]["workers_live"] == 2
        assert "w0" not in snapshot["workers"]
        assert snapshot["cluster"]["sessions_rehomed"] > 0, \
            "w0's streams must have been drained onto the survivors"
