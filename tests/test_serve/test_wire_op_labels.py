"""``repro_wire_requests_total`` labels every op of the table by its name.

One request of any op -- whether the server answers or refuses it -- moves
exactly its own ``op`` label by one, over JSON and (where the op has
frames) binary.  Only ops outside the table count as ``op="unknown"``.
"""

import pytest

from repro.serve import BinaryClient, ServiceConfig, TCPClient, ops

from serve_helpers import N_CHANNELS
from test_tcp import ServerThread

OBS_CONFIG = ServiceConfig(max_batch=8, max_delay_ms=2.0,
                           observability=True, trace_events=64)

#: every op of the table, over JSON and (where it has frames) binary
CASES = [(protocol, name) for name, op in ops.OPS.items()
         for protocol in ("json", "binary")
         if protocol == "json" or op.request is not None]


def _request_counts(service):
    """The ``repro_wire_requests_total`` series of the service's page."""
    counts = {}
    for line in service.metrics_text().splitlines():
        if line.startswith("repro_wire_requests_total{"):
            series, _, value = line.rpartition(" ")
            counts[series] = float(value)
    return counts


@pytest.mark.parametrize("protocol,name", CASES,
                         ids=[f"{protocol}-{name}" for protocol, name in CASES])
def test_every_op_counts_under_its_own_label(detectors, protocol, name):
    client_cls = TCPClient if protocol == "json" else BinaryClient
    with ServerThread(detectors["VARADE"], config=OBS_CONFIG) as server:
        service = server.server.service
        with client_cls(port=server.port, timeout_s=10.0) as client:
            before = _request_counts(service)
            client.request({"op": name, "stream": "s0",
                            "values": [0.0] * N_CHANNELS, "state": "AAAA"})
            after = _request_counts(service)
    moved = {series: value - before.get(series, 0.0)
             for series, value in after.items()
             if value != before.get(series, 0.0)}
    assert moved == {
        f'repro_wire_requests_total{{protocol="{protocol}",op="{name}"}}': 1.0}
