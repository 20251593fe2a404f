"""Workload definitions, artifacts, seeded inputs and the offline reference.

Every workload serves one packaged artifact trained through the public
``Pipeline`` (fit -> calibrate -> [quantize] -> package).  Training is
deterministic in its fixed seed, so the trained artifact is cached under
the benchmark's state directory, keyed by this file (the recipe) and the
bytes of ``src/repro``.

Inputs are a pool of recordings per workload, generated from the workload
seed.  A stream replays one recording from a seeded offset, wrapping around
cyclically, so a closed loop can push as many samples as the server
accepts.  The reference scores each recording's *cyclic* windows once
(``score_windows_batch``); a stream's sample ``i >= window - 1`` sees
exactly the cyclic window ending at its recording position, so one
reference serves every stream, offset and phase.

Alarms are the latency probes, so a run re-calibrates the artifact's
threshold to the quantile of the reference scores at which the workload's
``alarm_share`` of its traffic alarms, and serves that re-packaged copy:
the alarm rate, and with it the number of latencies behind a p99, then no
longer swings with how unusual one seed's recordings are.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: samples a stream must push before the server scores it (window - 1)
WARMUP = 63
WINDOW = 64


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one artifact."""

    artifact: str                 #: key into ARTIFACTS
    streams: int                  #: live streams at any time
    data_connections: int         #: binary connections carrying PUSH traffic
    frame_sizes: Tuple[int, int]  #: samples per PUSH frame, inclusive range
    arrival: str                  #: "periodic" (aligned clocks) | "poisson"
    nominal_sps: float            #: open-loop nominal rate, all streams
    in_flight: int                #: closed loop: PUSH frames in flight per connection
    latency_limit_ms: float       #: p99 alarm-latency limit of the rate ladder
    alarm_share: float            #: share of the traffic's samples that alarm
    recordings: int               #: recordings in the input pool
    recording_samples: int        #: samples per recording
    workers: int = 1              #: ``repro serve --workers`` (1 = single process)
    lifetime_samples: int = 0     #: churn: samples a stream pushes before closing
    control: bool = False         #: JSON control connection polling metrics/stats


#: the fixed open-loop rates (offered samples/s) of every workload's ladder
LADDER: Tuple[float, ...] = tuple(round(1000.0 * 1.05 ** k) for k in range(60))


WORKLOADS: Dict[str, Workload] = {
    # The latency-at-low-load side of the serving-lane choice: 8 robot arms
    # at 200 Hz (1600 samples/s, a quarter of capacity on 2 CPUs), their
    # clocks staggered so an 8-sample frame leaves every 5 ms; the int8
    # window-64 VARADE on 86 channels is heavy per sample, so the int8
    # plans and the inline incremental lane do the work while cross-session
    # batching and the wire do little.
    "robot_cell": Workload(
        artifact="robot_int8", streams=8, data_connections=2,
        frame_sizes=(8, 8), arrival="periodic", nominal_sps=1600.0,
        in_flight=4, latency_limit_ms=100.0, alarm_share=0.4,
        # one arm's samples in a nominal phase (1.8 s at 200 Hz), so every
        # phase replays each recording once and alarms about as often
        recordings=8, recording_samples=360),
    # The throughput side: 64 sensors of 6 channels on the float window-64
    # artifact, Poisson (bursty, unaligned) 1-4-sample frames; per-frame
    # wire and dispatch costs, per-sample session costs and full
    # cross-session batches dominate.  3000 samples/s is about half of what
    # the seed sustains in the open loop (max_rate_sps ~6.8k; capacity_sps,
    # the pipelined closed loop, reads ~8.5k); at 4000 the p99 swung by
    # half between runs on 2 CPUs.  It runs by name but is not among
    # BENCHMARK.json's workloads: three workloads leave each run too short
    # for steady figures on a shared 2-CPU host, and robot_cell (int8
    # plans) plus sharded_churn (float plans, router, obs) still reach
    # every layer.
    "sensor_fleet": Workload(
        artifact="fleet_float", streams=64, data_connections=2,
        frame_sizes=(1, 4), arrival="poisson", nominal_sps=3000.0,
        in_flight=16, latency_limit_ms=100.0, alarm_share=0.3,
        recordings=16, recording_samples=4000),
    # The only workload on the router hop, the session open/close/drain path
    # and the obs registry: router + 2 workers on the fleet artifact, streams
    # that live three windows while fresh ids keep 32 live, and a JSON
    # control connection polling metrics and stats once a second.  1200
    # samples/s is about a third of max_rate_sps: router, workers and
    # generator share 2 CPUs, and nearer the knee the tail follows the
    # host's scheduler.  A stream's first window is not scored, so the
    # alarm share is high enough for 1000 alarms in every nominal phase.
    "sharded_churn": Workload(
        artifact="fleet_float", streams=32, data_connections=1,
        frame_sizes=(1, 4), arrival="poisson", nominal_sps=1200.0,
        in_flight=16, latency_limit_ms=150.0, alarm_share=0.9,
        recordings=16, recording_samples=4000, workers=2,
        lifetime_samples=3 * WINDOW, control=True),
}


# --------------------------------------------------------------------------- #
# Artifacts
# --------------------------------------------------------------------------- #
ARTIFACT_SEED = 0

#: recipe of each artifact: detector params, training budget and data
ARTIFACTS: Dict[str, dict] = {
    "robot_int8": {
        "params": {"window": WINDOW},
        "training": {"epochs": 2, "mean_warmup_epochs": 1,
                     "variance_finetune_epochs": 3, "learning_rate": 3e-3,
                     "max_train_windows": 1500},
        "data": {"source": "benchmark",
                 "params": {"train_duration_s": 30.0, "test_duration_s": 5.0,
                            "sample_rate": 200.0, "n_collisions": 1}},
        "int8": True,
    },
    "fleet_float": {
        "params": {"window": WINDOW},
        "training": {"epochs": 2, "mean_warmup_epochs": 1,
                     "variance_finetune_epochs": 3, "learning_rate": 3e-3,
                     "max_train_windows": 1500},
        "data": {"source": "synthetic",
                 "params": {"n_channels": 6, "train_samples": 3000,
                            "test_samples": 200, "n_anomalies": 1,
                            "anomaly_length": 30}},
        "int8": False,
    },
}


def source_digest(root: Path) -> str:
    """Hash of every file under ``src/repro`` (the cache key's code part)."""
    digest = hashlib.sha256()
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_artifact(name: str, workdir: Path) -> None:
    """Train, calibrate, optionally quantize and package one artifact.

    ``workdir/package`` is what ``repro serve --workdir workdir`` serves.
    """
    from repro.pipeline import (CalibrationSpec, DataSpec, DeploymentSpec,
                                DetectorSpec, Pipeline, QuantizationSpec,
                                ServiceSpec)

    recipe = ARTIFACTS[name]
    data = DataSpec(source=recipe["data"]["source"],
                    params=dict(recipe["data"]["params"]))
    spec = DeploymentSpec(
        detector=DetectorSpec(kind="varade", params=dict(recipe["params"]),
                              training=dict(recipe["training"])),
        data=data,
        calibration=CalibrationSpec(method="quantile", quantile=0.9),
        quantization=QuantizationSpec() if recipe["int8"] else None,
        # The artifact's default service settings, bound to an ephemeral port.
        service=ServiceSpec(port=0),
        seed=ARTIFACT_SEED,
    )
    dataset = data.build(ARTIFACT_SEED)
    pipeline = Pipeline.from_spec(spec)
    pipeline.fit(dataset.train)
    pipeline.calibrate()
    if recipe["int8"]:
        pipeline.quantize()
    pipeline.package(workdir / "package", overwrite=True)


def ensure_artifact(name: str, cache: Path, code_digest: str) -> Path:
    """The cached workdir of artifact ``name``, building it when missing."""
    # This file holds the recipe and the build steps: it is part of the key.
    recipe = Path(__file__).read_bytes().decode()
    key = hashlib.sha256(json.dumps(
        [name, recipe, code_digest]).encode()).hexdigest()[:16]
    workdir = cache / f"{name}-{key}"
    if (workdir / "package" / "manifest.json").is_file():
        return workdir
    staging = cache / f".{name}-{key}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    build_artifact(name, staging)
    shutil.rmtree(workdir, ignore_errors=True)
    os.replace(staging, workdir)
    return workdir


def load_serving_detector(workdir: Path):
    from repro.pipeline import Pipeline

    return Pipeline.load(workdir / "package").serving_detector


def repackage(workdir: Path, threshold, out: Path) -> Path:
    """Serve ``workdir``'s artifact with ``threshold``; return the new workdir."""
    from repro.pipeline import Pipeline

    pipeline = Pipeline.load(workdir / "package")
    pipeline.serving_detector.set_threshold(threshold)
    pipeline.package(out / "package", overwrite=True)
    return out


def fingerprint(workdir: Path) -> str:
    from repro.serialize import artifact_fingerprint

    return artifact_fingerprint(workdir / "package")


# --------------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------------- #
def _recordings(artifact: str, seed: int, count: int,
                samples: int) -> List[np.ndarray]:
    recordings = []
    for k in range(count):
        rec_seed = seed * 1000 + k
        if artifact == "robot_int8":
            from repro.data import DatasetConfig, build_benchmark_dataset

            data = build_benchmark_dataset(DatasetConfig(
                train_duration_s=10.0, test_duration_s=samples / 200.0,
                sample_rate=200.0, n_collisions=3, seed=rec_seed)).test
        else:
            from repro.data import build_synthetic_anomaly_dataset

            data = build_synthetic_anomaly_dataset(
                n_channels=6, train_samples=64, test_samples=samples,
                n_anomalies=4, anomaly_length=40, seed=rec_seed).test
        recordings.append(np.ascontiguousarray(data[:samples],
                                               dtype=np.float32))
    return recordings


def make_recordings(workload: Workload, seed: int) -> List[np.ndarray]:
    """The workload's recording pool, float32-exact (the wire is ``<f4``)."""
    return _recordings(workload.artifact, seed, workload.recordings,
                       workload.recording_samples)


class Reference:
    """Offline scores of every cyclic window of every recording.

    :meth:`calibrate` picks the threshold at which ``share`` of them alarm
    and fixes the reference alarms against it.
    """

    def __init__(self, detector, recordings: List[np.ndarray],
                 chunk: int = 512) -> None:
        self.scores: List[np.ndarray] = []
        for rec in recordings:
            data = rec.astype(np.float64)
            extended = np.concatenate([data[-WARMUP:], data])
            windows = np.lib.stride_tricks.sliding_window_view(
                extended, (WINDOW, data.shape[1]))[:, 0]
            scores = np.empty(data.shape[0])
            for start in range(0, data.shape[0], chunk):
                stop = min(start + chunk, data.shape[0])
                scores[start:stop] = detector.score_windows_batch(
                    np.ascontiguousarray(windows[start:stop]),
                    data[start:stop])
            self.scores.append(scores)
        self.threshold = float("nan")
        self.alarms: List[np.ndarray] = []

    def calibrate(self, share: float):
        from repro.core import ThresholdCalibrator

        threshold = ThresholdCalibrator(method="quantile", quantile=1.0 - share) \
            .calibrate(np.concatenate(self.scores))
        self.threshold = threshold.threshold
        self.alarms = [scores > self.threshold for scores in self.scores]
        return threshold

    def alarm_fraction(self) -> float:
        return float(np.mean(np.concatenate(self.alarms)))
