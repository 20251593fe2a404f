"""Launch ``repro serve`` as a subprocess and read its processes from ``/proc``.

``setup_s`` runs from ``Popen`` to the first ``ping`` reply with all of the
first phase's sessions opened; the endpoint handshake is the server's own
``--port-file``.  CPU time is utime+stime from ``/proc/<pid>/stat`` and peak
memory is VmHWM from ``/proc/<pid>/status`` (reset per phase through
``/proc/<pid>/clear_refs``), summed over the serve process and, under
``--workers``, its worker children.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry))
    return sorted(found)


class ServeProcess:
    """One ``repro serve`` subprocess (router + workers under ``--workers``)."""

    def __init__(self, root: Path, workdir: Path, rundir: Path, workers: int,
                 tag: str, launcher: Optional[Path] = None,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.port_file = rundir / f"{tag}.port"
        self.port_file.unlink(missing_ok=True)
        command = [sys.executable]
        command += [str(launcher)] if launcher is not None else ["-m", "repro"]
        command += ["serve", "--workdir", str(workdir), "--port", "0",
                    "--port-file", str(self.port_file)]
        if workers > 1:
            command += ["--workers", str(workers)]
        environment = dict(os.environ if env is None else env)
        # Scratch files of the server (the cluster's worker port files)
        # stay inside the run directory.
        tmp = rundir / "tmp"
        tmp.mkdir(exist_ok=True)
        environment["TMPDIR"] = str(tmp)
        src = str(root / "src")
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = src if not existing \
            else os.pathsep.join([src, existing])
        self.log_path = rundir / f"{tag}.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, env=environment, cwd=root,
                                        stdout=self._log,
                                        stderr=subprocess.STDOUT)
        self.workers = workers
        self.worker_pids: List[int] = []

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_endpoint(self, timeout: float = 120.0) -> tuple:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}:\n"
                    + self.log_path.read_text()[-2000:])
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    if self.workers > 1:
                        self.worker_pids = children(self.pid)
                    return ("127.0.0.1", int(text))
            time.sleep(0.002)
        raise RuntimeError("repro serve did not write its port file in time")

    def pids(self) -> List[int]:
        return [self.pid] + self.worker_pids

    def cpu(self) -> Dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids()}

    def rss_mb(self) -> float:
        """Peak resident memory (VmHWM) since the last reset, summed."""
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def reset_peak_rss(self) -> None:
        for pid in self.pids():
            try:
                Path(f"/proc/{pid}/clear_refs").write_text("5")
            except OSError:
                pass

    def kill(self) -> None:
        """Terminate the server and its workers without asking."""
        if self.process.poll() is None:
            self.process.terminate()
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass
        self.stop(timeout=10.0)

    def stop(self, timeout: float = 30.0) -> int:
        """Wait for the (already asked to shut down) server; kill leftovers."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in self.worker_pids:
            deadline = time.monotonic() + 10.0
            while _stat_fields(pid) is not None and time.monotonic() < deadline:
                time.sleep(0.02)
            if _stat_fields(pid) is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._log.close()
        return self.process.returncode
