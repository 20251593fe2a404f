"""End-to-end serving benchmark: ``repro serve`` driven over the wire.

Usage (from the repository root)::

    python3 perfbench/run.py --workload robot_cell --seed 1 --seconds 20 --trace 0

Workloads: ``robot_cell``, ``sensor_fleet``, ``sharded_churn`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  A run:

1. builds (or reuses) the workload's artifact through the public
   ``Pipeline`` and generates its seeded inputs plus the offline reference
   (``score_windows_batch`` + threshold) outside every timed region;
2. launches ``repro serve`` several times for ``setup_s`` (median), and
   keeps the last server;
3. ``--trace 0``: rounds of a closed loop (``capacity_sps``), an open
   loop at the nominal rate (alarm latency, CPU per sample, peak memory,
   generator lateness) and one probe of a fixed rate ladder
   (``max_rate_sps``), interleaved so that the shared host's slow spells
   spread over every metric;
   ``--trace 1``: one untraced and one traced server (``tracing/``) run
   the same closed and nominal phases; spans of the traced nominal phase
   give the per-layer metrics, and the two runs give the tracing overhead;
4. checks every phase: the alarms served must equal the reference's and
   every request must be acknowledged.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a JSON report of the run (environment, artifact
fingerprints, per-phase counts, rates and lateness).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench_state"

#: repeated launches whose median is ``setup_s``
SETUP_LAUNCHES = 5
#: seconds of each phase; an untraced run is one warm-up phase of each
#: loop, then as many rounds of (closed loop, nominal open loop, ladder
#: probe) as ``--seconds`` holds
WARMUP_S = 1.0
CAPACITY_S = 1.0
NOMINAL_S = 1.8
RUNG_S = 1.0
#: shares of ``--seconds`` of the traced run's closed and nominal phases
#: (each runs once untraced and once traced)
TRACE_CAPACITY_SHARE = 0.12
TRACE_NOMINAL_SHARE = 0.3
#: the ladder's binary search brackets rungs between these shares of the
#: warm-up closed loop's pushed rate, for this many probes; the remaining
#: rounds' probes step one rung up after a pass and one down after a fail
LADDER_BRACKET = (0.5, 1.6)
SEARCH_PROBES = 3
#: a rung stops once an alarm is this many latency limits late
RUNG_ABORT = 5.0
#: p99 generator lateness beyond which a nominal phase is invalid: the
#: shared host stalled the generator, and its alarms' latencies show that
#: stall rather than the server (the floor is the selector's 1 ms tick)
LATENESS_BOUND_S = 0.002
#: the same for a ladder probe, whose verdict only needs the offered rate
RUNG_LATENESS_BOUND_S = 0.010
#: nominal phases scored at the least; when fewer are valid, the least
#: late ones are scored and the report says so
MIN_SCORED = 3
#: alarms needed beyond p99 (so at least 100 * this alarms per phase)
TAIL_ALARMS = 10
#: relative tolerance between a served alarm's score and the reference's
SCORE_RTOL = 1e-6
#: thread-count variables of the BLAS and OpenMP runtimes
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) \
        else float("nan")


def environment() -> dict:
    import numpy as np
    import workloads

    blas = {name: os.environ.get(name) for name in BLAS_THREADS}
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "blas_threads": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "platform": platform.platform(),
            # identifies the code where there is no git repository
            "source_digest": workloads.source_digest(ROOT)}


class Run:
    """One benchmark run: artifact, inputs, reference and the phases."""

    def __init__(self, workload, seed: int, seconds: float, rundir: Path) -> None:
        import workloads
        from traffic import Traffic

        self.workload = workload
        self.seconds = seconds
        self.rundir = rundir
        trained = workloads.ensure_artifact(
            workload.artifact, STATE / "artifacts",
            workloads.source_digest(ROOT))
        self.detector = workloads.load_serving_detector(trained)
        recordings = workloads.make_recordings(workload, seed)
        self.reference = workloads.Reference(self.detector, recordings)
        threshold = self.reference.calibrate(workload.alarm_share)
        self.workdir = workloads.repackage(trained, threshold,
                                           rundir / "artifact")
        self.fingerprints = {"trained": workloads.fingerprint(trained),
                             "served": workloads.fingerprint(self.workdir)}
        self.traffic = Traffic(workload, recordings, seed)
        self.phases: list = []
        self.closed_loop = None     # (streams, iterators) of the live closed loop
        self.attempted = 0
        self.failed = 0
        self.launches = 0

    # -- server lifecycle ------------------------------------------------------ #
    def launch(self, traced: bool = False):
        """Start a server, open the first phase's sessions; return (server, gen, setup_s)."""
        from loadgen import LoadGenerator, PhaseLog
        from repro.serve import wire
        from server import ServeProcess
        from traffic import OPEN

        self.launches += 1
        tag = f"serve{self.launches}"
        launcher = env = None
        if traced:
            launcher = HERE / "tracing" / "launch.py"
            spans = self.rundir / "spans"
            spans.mkdir(exist_ok=True)
            env = dict(os.environ, PERFBENCH_SPANS=str(spans))
        server = ServeProcess(ROOT, self.workdir, self.rundir,
                              self.workload.workers, tag, launcher, env)
        try:
            endpoint = server.wait_endpoint()
            gen = LoadGenerator(endpoint, self.workload.data_connections,
                                self.workload.control)
            log = PhaseLog(f"setup{self.launches}")
            gen.log = log
            streams = self.traffic.streams(f"s{self.launches}")
            for stream in streams:
                gen.issue((0.0, stream.conn, OPEN, stream, 0, 0,
                           wire.encode(wire.Open(stream.sid))))
            for index in range(len(gen.conns)):
                gen.ping(index)
            gen.wait_replies(60.0)
            setup_s = time.perf_counter() - server.started
            gen.finish(streams)
        except BaseException:
            server.kill()
            raise
        self._account(log, streams)
        self._record(log, setup_s=setup_s)
        return server, gen, setup_s

    def shutdown(self, server, gen) -> None:
        """Ask the server to shut down and wait for it; kill it if it won't."""
        from loadgen import PhaseLog

        log = PhaseLog(f"shutdown{self.launches}")
        gen.log = log
        try:
            gen.shutdown_server()
        except OSError as error:
            log.fail(f"shutdown request failed: {error}")
            gen.close()
            server.kill()
        finally:
            code = server.stop()
        if code != 0:
            log.fail(f"repro serve exited with {code}")
        self._account(log, [])
        self._record(log, exit_code=code)

    # -- accounting ------------------------------------------------------------ #
    def _account(self, log, streams) -> None:
        """Check the streams' alarms against the reference; count the phase."""
        from traffic import expected_alarms, reference_score
        from workloads import WARMUP

        for stream in streams:
            expected = set(expected_alarms(stream, self.reference).tolist())
            log.attempted += len(expected)
            served = {}
            for index, score, received in stream.alarms:
                if index in served:
                    log.fail(f"{stream.sid}: duplicate alarm {index}")
                    continue
                served[index] = (score, received)
            for index in expected - served.keys():
                log.fail(f"{stream.sid}: missing alarm {index}")
            for index in served.keys() - expected:
                log.fail(f"{stream.sid}: unexpected alarm {index}")
            for index in expected & served.keys():
                score, _ = served[index]
                want = reference_score(stream, self.reference, index)
                if abs(score - want) > SCORE_RTOL * max(1.0, abs(want)):
                    log.fail(f"{stream.sid}: alarm {index} score {score} != {want}")
            if stream.close_ack is not None:
                scored = max(0, stream.acked - WARMUP)
                if stream.close_ack != (stream.acked, scored):
                    log.fail(f"{stream.sid}: CLOSE_ACK {stream.close_ack} != "
                             f"({stream.acked}, {scored})")
        self.attempted += log.attempted
        self.failed += log.failed

    def _record(self, log, **extra) -> None:
        entry = {"phase": log.name, "attempted": log.attempted,
                 "failed": log.failed, "samples": log.pushed,
                 "scored": log.scored}
        if log.lateness_s:
            entry["lateness_p50_ms"] = _quantile(log.lateness_s, 0.5) * 1e3
            entry["lateness_p99_ms"] = _quantile(log.lateness_s, 0.99) * 1e3
            entry["lateness_max_ms"] = max(log.lateness_s) * 1e3
        if log.errors:
            entry["errors"] = log.errors[:5]
        entry.update(extra)
        self.phases.append(entry)

    # -- phases ---------------------------------------------------------------- #
    def capacity(self, gen, name: str, seconds: float) -> tuple:
        """One closed-loop burst: (scored samples/s, pushed samples/s, seconds).

        The closed loop's streams live on across bursts (only the first
        pays their warm-up) until :meth:`close_capacity`.  A PUSH_ACK only
        means the samples were accepted, so a burst's rates run from its
        first request until the server reports every accepted sample
        scored.
        """
        from loadgen import PhaseLog, clock

        if self.closed_loop is None:
            self.closed_loop = self.traffic.closed_requests("capacity")
        _, iterators = self.closed_loop
        log = PhaseLog(name)
        gen.run_closed(log, iterators, seconds, self.workload.in_flight)
        gen.drain()
        elapsed = clock() - log.start
        self._account(log, [])
        capacity = log.scored / elapsed
        offered = log.pushed / elapsed
        self._record(log, loop="closed",
                     in_flight_per_connection=self.workload.in_flight,
                     connections=self.workload.data_connections,
                     seconds=elapsed, capacity_sps=capacity,
                     pushed_sps=offered)
        return capacity, offered, elapsed

    def close_loop(self, gen, name: str, streams) -> None:
        """Close a loop's streams and check all of their alarms."""
        from loadgen import PhaseLog

        log = PhaseLog(name)
        gen.log = log
        gen.finish(streams)
        self._account(log, streams)
        self._record(log)

    def close_capacity(self, gen) -> None:
        self.close_loop(gen, "capacity_close", self.closed_loop[0])
        self.closed_loop = None

    def open_phase(self, server, gen, name: str, rate: float, seconds: float,
                   loop=None, before=None, after=None,
                   rung: bool = False) -> dict:
        """One open-loop phase at ``rate``; returns its measurements.

        Without a ``loop`` the phase opens, closes and checks streams of its
        own; with one, its streams stay open for the loop's next phase.  A
        ladder ``rung`` stops early once an alarm is ``RUNG_ABORT`` latency
        limits late (it has failed by then).
        """
        from loadgen import PhaseLog, clock
        from traffic import OpenLoop

        log = PhaseLog(name)
        gen.log = log
        own = loop is None
        if own:
            loop = OpenLoop(self.traffic, name)
        requests = loop.schedule(rate, seconds)
        if before is not None:
            before(gen, log)
        limit = self.workload.latency_limit_ms / 1e3
        if rung:
            log.abort_after_s = RUNG_ABORT * limit
        server.reset_peak_rss()
        cpu0 = server.cpu()
        gen.run_open(log, requests)
        if own:
            gen.finish(loop.streams)
        else:
            if log.aborted:
                loop.rewind()
            gen.settle(loop.streams)
        cpu1 = server.cpu()
        rss = server.rss_mb()
        window = (log.start, clock())
        if after is not None:
            after(gen, log)
        if own:
            self._account(log, loop.streams)
        else:
            self._account(log, [])
        latencies = log.latencies
        elapsed = log.end - log.start
        cpu = {pid: cpu1[pid] - cpu0.get(pid, 0.0) for pid in cpu1}
        lateness_p99 = _quantile(log.lateness_s, 0.99)
        result = {
            "log": log, "window": window, "cpu_s": cpu, "rss_mb": rss,
            "rate_sps": rate, "achieved_sps": log.pushed / elapsed if elapsed > 0 else 0.0,
            "alarms": len(latencies),
            "alarm_p50_ms": _quantile(latencies, 0.5) * 1e3,
            "alarm_p99_ms": _quantile(latencies, 0.99) * 1e3,
            "lateness_p99_s": lateness_p99,
            "valid": lateness_p99 <= (RUNG_LATENESS_BOUND_S if rung
                                      else LATENESS_BOUND_S),
        }
        # A backlog that grew during the phase shows as catch-up time after
        # its last due request.
        result["meets_limit"] = (
            result["valid"] and log.failed == 0 and not log.aborted
            and result["alarm_p99_ms"] <= self.workload.latency_limit_ms
            and log.catch_up_s <= limit)
        self._record(log, loop="open", rate_sps=rate, seconds=seconds,
                     alarms=len(latencies), alarm_p50_ms=result["alarm_p50_ms"],
                     alarm_p99_ms=result["alarm_p99_ms"],
                     cpu_s=sum(cpu.values()), valid=result["valid"],
                     catch_up_ms=log.catch_up_s * 1e3, aborted=log.aborted,
                     meets_limit=result["meets_limit"])
        return result

    def nominal(self, server, gen, name: str, seconds: float, **options) -> dict:
        """A nominal-rate phase; ``valid`` is false if the generator ran late."""
        result = self.open_phase(server, gen, name, self.workload.nominal_sps,
                                 seconds, **options)
        if result["alarms"] < 100 * TAIL_ALARMS:
            print(f"note: only {result['alarms']} alarms in {name}; its p99 "
                  f"has fewer than {TAIL_ALARMS} beyond it", file=sys.stderr)
        return result

    def rung(self, server, gen, index: int, loop) -> dict:
        """One probe of ladder rung ``index`` (offered samples/s).

        Long-lived streams probe on the nominal ``loop``, so a probe is not
        spent on warm-up; churn workloads probe on streams of their own.
        """
        from workloads import LADDER

        if self.workload.lifetime_samples:
            loop = None
        return self.open_phase(server, gen, f"rung{index}_{len(self.phases)}",
                               LADDER[index], RUNG_S,
                               loop=loop, rung=True)


class Ladder:
    """Where the next probe of the fixed rate ladder goes, and the verdict.

    The first ``SEARCH_PROBES`` probes binary-search the rungs between
    ``LADDER_BRACKET`` shares of a closed loop's pushed rate; then each
    probe steps one rung up after a pass and one down after a fail, so the
    probes settle about the knee and every rung near it is tried several
    times.  One probe per round spreads them over the run, so a slow spell
    of the shared host fails one probe, not the result.
    """

    def __init__(self, pushed_sps: float) -> None:
        from workloads import LADDER

        def index_at(rate: float) -> int:
            return max([k for k, r in enumerate(LADDER) if r <= rate], default=0)

        self.top = len(LADDER) - 1
        self.low = index_at(LADDER_BRACKET[0] * pushed_sps) - 1   # known pass
        self.high = index_at(LADDER_BRACKET[1] * pushed_sps) + 1  # known fail
        self.probes: list = []     # (rung, result)
        self.next = (self.low + self.high + 1) // 2

    def record(self, index: int, result: dict) -> None:
        self.probes.append((index, result))
        passed = result["meets_limit"]
        if len(self.probes) < SEARCH_PROBES and self.high - self.low > 2:
            if passed:
                self.low = index
            else:
                self.high = index
            self.next = (self.low + self.high + 1) // 2
        else:
            self.next = index + 1 if passed else index - 1
        self.next = min(max(self.next, 0), self.top)

    def knee(self) -> int:
        """The rung that best splits the probes into passes (at or below it)
        and fails (above it): fewest probes on the wrong side, the lower
        median of the ties.  One lucky or unlucky probe moves it little."""
        def misplaced(rung: int) -> int:
            return sum((index > rung) == result["meets_limit"]
                       for index, result in self.probes)

        candidates = sorted({index for index, _ in self.probes}
                            | {index - 1 for index, _ in self.probes})
        fewest = min(misplaced(rung) for rung in candidates)
        best = [rung for rung in candidates if misplaced(rung) == fewest]
        return best[(len(best) - 1) // 2]

    def max_rate(self) -> float:
        """The knee rung's rate: achieved, median over its passing probes."""
        from workloads import LADDER

        knee = self.knee()
        achieved = [result["achieved_sps"] for index, result in self.probes
                    if index == knee and result["meets_limit"]]
        return statistics.median(achieved) if achieved else float(LADDER[knee])


def run_untraced(run: Run) -> tuple:
    """Setup launches; warm-up; rounds of (closed loop, nominal, ladder probe).

    Both loops' streams live through all rounds, so only the warm-up pays
    their first window.  Interleaving spreads each metric over the run, so
    a slow spell of the shared host moves one round, not the result.
    """
    setups = []
    server = gen = None
    for launch in range(SETUP_LAUNCHES):
        server, gen, setup_s = run.launch()
        setups.append(setup_s)
        if launch < SETUP_LAUNCHES - 1:
            run.shutdown(server, gen)
    from traffic import OpenLoop
    from workloads import WARMUP

    capacities, nominals = [], []
    workload = run.workload
    # The nominal warm-up lasts until every stream has filled its first
    # window, so the first scored phase alarms as often as the others.
    nominal_warmup_s = max(WARMUP_S, (WARMUP + 1) * workload.streams
                           / workload.nominal_sps)
    try:
        nominal = OpenLoop(run.traffic, "nominal")
        _, pushed, _ = run.capacity(gen, "warmup", WARMUP_S)
        run.open_phase(server, gen, "nominal_warmup", workload.nominal_sps,
                       nominal_warmup_s, loop=nominal)
        ladder = Ladder(pushed)
        rounds = max(1, int((run.seconds - WARMUP_S - nominal_warmup_s)
                            // (CAPACITY_S + NOMINAL_S + RUNG_S)))
        for round_ in range(rounds):
            capacities.append(run.capacity(gen, f"capacity{round_}",
                                           CAPACITY_S))
            nominals.append(run.nominal(server, gen, f"nominal{round_}",
                                        NOMINAL_S, loop=nominal))
            ladder.record(ladder.next,
                          run.rung(server, gen, ladder.next, nominal))
        run.close_capacity(gen)
        run.close_loop(gen, "nominal_close", nominal.streams)
        max_rate = ladder.max_rate()
    finally:
        run.shutdown(server, gen)

    # Peak memory of the first nominal phase: later ones follow ladder
    # probes, whose overload leaves the heap grown.
    rss_mb = nominals[0]["rss_mb"]
    scored = [nominal for nominal in nominals if nominal["valid"]]
    if len(scored) < MIN_SCORED:
        scored = sorted(nominals, key=lambda n: n["lateness_p99_s"])[:MIN_SCORED]
    nominals = scored

    def median(key) -> float:
        return statistics.median(nominal[key] for nominal in nominals)

    return {
        "capacity_sps": (sum(c * t for c, _, t in capacities)
                         / sum(t for _, _, t in capacities), "1/s"),
        "alarm_latency_p50_ms": (median("alarm_p50_ms"), "ms"),
        # A tail is a handful of alarms, and one stall of the shared host
        # moves it: the least disturbed phase's p99 is the server's own
        # tail, as a timing's best of several repeats is.
        "alarm_latency_p99_ms": (min(n["alarm_p99_ms"] for n in nominals),
                                 "ms"),
        "max_rate_sps": (max_rate, "1/s"),
        "cpu_ms_per_ksample": (_cpu_ms_per_ksample(nominals), "ms/ksample"),
        "rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }, {"setup_s_each": setups, "nominal_sps": run.workload.nominal_sps,
        "nominal_samples": [n["log"].pushed for n in nominals],
        "nominal_alarms": [n["alarms"] for n in nominals],
        "nominal_scored": [n["log"].name for n in nominals],
        "nominal_all_late": not any(n["valid"] for n in nominals)}


def _cpu_ms_per_ksample(nominals: list) -> float:
    """Serving CPU per 1000 scored samples, pooled over open-loop phases.

    ``/proc`` counts CPU in clock ticks; pooling keeps that granularity
    well below the spread between runs.
    """
    cpu_s = sum(sum(n["cpu_s"].values()) for n in nominals)
    return cpu_s * 1e6 / sum(n["log"].scored for n in nominals)


def run_traced(run: Run) -> tuple:
    """An untraced and a traced server each run a closed loop and a nominal phase.

    The traced nominal phase gives the per-layer metrics; the two servers'
    capacity and CPU per sample give the tracing overhead.
    """
    import layers

    def capacity(gen, name: str) -> float:
        run.capacity(gen, f"warmup_{name}", WARMUP_S)
        scored, _, _ = run.capacity(gen, f"capacity_{name}",
                                 TRACE_CAPACITY_SHARE * run.seconds)
        run.close_capacity(gen)
        return scored

    server, gen, _ = run.launch()
    try:
        plain_capacity = capacity(gen, "untraced")
        plain = run.nominal(server, gen, "nominal_untraced",
                            TRACE_NOMINAL_SHARE * run.seconds)
    finally:
        run.shutdown(server, gen)

    probes = layers.Probes()
    server, gen, _ = run.launch(traced=True)
    try:
        traced = run.nominal(server, gen, "nominal_traced",
                             TRACE_NOMINAL_SHARE * run.seconds,
                             before=probes.before, after=probes.after)
        traced_capacity = capacity(gen, "traced")
    finally:
        run.shutdown(server, gen)
    spans = layers.load_spans(run.rundir / "spans")
    router = server.pid if run.workload.workers > 1 else None
    metrics = layers.per_layer(run, traced, spans, probes, router)
    plain_cpu = _cpu_ms_per_ksample([plain])
    traced_cpu = _cpu_ms_per_ksample([traced])
    metrics["trace.overhead_capacity_share"] = (
        1.0 - traced_capacity / plain_capacity, "share")
    metrics["trace.overhead_cpu_share"] = (traced_cpu / plain_cpu - 1.0, "share")
    return metrics, {"spans_dropped": sum(p["dropped"] for p in spans),
                     "capacity_untraced": plain_capacity,
                     "capacity_traced": traced_capacity,
                     "cpu_ms_per_ksample_untraced": plain_cpu,
                     "cpu_ms_per_ksample_traced": traced_cpu,
                     "flops_bytes_note": layers.SHAPE_NOTE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread in this process and the servers it starts, unless the
    # caller chose otherwise: on a host of few CPUs, OpenBLAS's extra threads
    # spin after each GEMM on the CPU the load generator needs to send on
    # time, and the late sends show as alarm latency.
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # A terminated benchmark still runs its ``finally`` blocks, which stop
    # the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    STATE.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        return _main(WORKLOADS[args.workload], args, rundir)
    except BaseException:
        # The servers' own output is the only post-mortem there is.
        for log in sorted(rundir.glob("serve*.log")):
            print(f"--- {log.name} (tail)\n{log.read_text()[-3000:]}",
                  file=sys.stderr)
        raise
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _main(workload, args, rundir: Path) -> int:
    run = Run(workload, args.seed, args.seconds, rundir)
    started = time.perf_counter()
    if args.trace:
        metrics, details = run_traced(run)
    else:
        metrics, details = run_untraced(run)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "measured_wall_s": time.perf_counter() - started,
        "environment": environment(),
        "artifact": {"name": workload.artifact,
                     "fingerprints": run.fingerprints,
                     "threshold": run.reference.threshold,
                     "reference_alarm_fraction": run.reference.alarm_fraction()},
        "latency_limit_ms": workload.latency_limit_ms,
        "details": details, "phases": run.phases,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
