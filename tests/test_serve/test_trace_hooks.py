"""The benchmark's traced run still attaches to the serving stack.

``perfbench/tracing/spans.py`` wraps serving entry points by name -- among
them ``AnomalyWireServer._dispatch`` (each span keyed on
``message["op"]``) and the module attribute ``wire.encode``.  The
end-to-end benchmark gate does not run the traced run, so a refactor could
detach it silently.  This test installs the wrappers in a fresh
interpreter (``install`` raises if a wrapped attribute is missing), then
drives one JSON and one binary connection through a wire server and checks
that the spans it relies on were recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serialize import save_detector

from serve_helpers import N_CHANNELS

ROOT = Path(__file__).resolve().parents[2]
TRACING = ROOT / "perfbench" / "tracing"

SCRIPT = r"""
import asyncio
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import spans

recorder = spans.install(Path(sys.argv[2]), "serve")

from repro.serialize import load_detector
from repro.serve import (AnomalyService, AnomalyWireServer, BinaryClient,
                         ServiceConfig, TCPClient, TCPTransport)

service = AnomalyService(load_detector(sys.argv[3]),
                         config=ServiceConfig(max_batch=8, max_delay_ms=1.0))
server = AnomalyWireServer(service, TCPTransport("127.0.0.1", 0))
up = threading.Event()


async def main():
    ready = asyncio.Event()
    task = asyncio.create_task(server.serve_forever(ready=ready))
    await ready.wait()
    up.set()
    await task

thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
thread.start()
assert up.wait(10.0), "server did not come up"
width = int(sys.argv[4])
with TCPClient(port=server.bound_port, timeout_s=10.0) as client:
    client.ping()
with BinaryClient(port=server.bound_port, timeout_s=10.0) as client:
    client.open("s")
    client.push("s", [[0.0] * width] * 4)
    client.close_stream("s")
    client.shutdown()
thread.join(10.0)

codes = {code: name for name, code in recorder.names.items()}
keys = {code: key for key, code in recorder.keys.items()}
seen = {}
for name, _, _, _, _, _, key, _ in recorder.spans:
    seen.setdefault(codes[name], set()).add(keys[key])
print(json.dumps({name: sorted(values) for name, values in seen.items()}))
"""


def test_perfbench_span_wrappers_attach(detectors, tmp_path):
    save_detector(detectors["VARADE"], tmp_path / "detector")
    (tmp_path / "spans").mkdir()
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TRACING), str(tmp_path / "spans"),
         str(tmp_path / "detector"), str(N_CHANNELS)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    assert {"ping", "open", "push", "close", "shutdown"} <= \
        set(seen["tcp.request"])
    assert "wire.encode" in seen
    assert "service.push" in seen
