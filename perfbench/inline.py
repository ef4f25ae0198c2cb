"""The workloads: a fixed (app x arch) grid through the experiment runner.

Each job takes the path ``python -m repro run --workers 1 --no-cache``
takes: an :class:`~repro.runner.ExperimentRunner` with one worker and the
persistent cache off, so every first submission simulates in-process
and a resubmission is an in-process memo read. The grid is the same in
every run; the seed only shuffles the job order and picks the jobs that
are resubmitted as hits.

An untraced run sweeps the grid :data:`SWEEPS` times, each on a fresh
runner; every sweep after the first re-simulates each job and must
reproduce its fingerprint (the determinism check). A traced run sweeps
it once under spans and the stack sampler, re-runs a sample as
untraced/traced pairs for the tracing overhead, and then serves the grid
over HTTP (:mod:`perfbench.served`).
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.checks import Ledger, lb_ipc_gain
from perfbench.tracing import LAYERS, LayerSampler, Tracer, instrument_runner

#: Architectures every inline workload runs: the baseline, the paper's
#: mechanism, and the two related register-file designs on the same hooks.
ARCHS = ("baseline", "linebacker", "cerf", "pcal")
NUM_SMS = 2
WINDOW_CYCLES = 2_000
#: Trace scale of every job. On a shared 2-vCPU Xeon VM a sweep of the
#: 20-job grid costs 11-23 CPU seconds; at scale 0.25 it costs about 50,
#: too much for three sweeps in one run of the benchmark.
SCALE = 0.0625
SETUP_REPS = 5
#: Sweeps of the grid per untraced run; each timing metric is the median
#: over sweeps. On a shared VM the host's speed can shift by up to 1.5x
#: for tens of seconds at a time, about one sweep; the median of three
#: sets aside one sweep caught in such a shift.
SWEEPS = 3
#: Memo-hit resubmissions after each cold job: 200 per sweep, so ten lie
#: beyond the 95th percentile.
HITS_PER_JOB = 10
#: Jobs a traced run re-runs as untraced/traced pairs for the overhead.
PAIRS = 3

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from repro.config import scaled_config
from repro.runner import ExperimentRunner, JobSpec, resolve
config = scaled_config(num_sms={sms}, window_cycles={window})
archs = [resolve(name) for name in {archs!r}]
runner = ExperimentRunner(workers=1, use_cache=False)
spec = JobSpec.build({app!r}, archs[0].name, config, {scale})
print(time.perf_counter() - t0)
"""


def measure_setup(src: Path, app: str) -> float:
    """Median seconds, over fresh interpreters, from the first line of a
    script to a runner ready for its first job: importing ``repro`` and
    resolving the configuration and the architecture registry."""
    code = _SETUP_CHILD.format(src=str(src), sms=NUM_SMS, window=WINDOW_CYCLES,
                               archs=ARCHS, app=app, scale=SCALE)
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def submit_cold(runner, spec, tracer=None, sampler=None):
    """Submit one not-yet-run spec; returns (result, wall s, cpu s).

    With a tracer, the submission runs under spans around each call the
    runner makes and under ``sampler``.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        result = runner.run(spec)
    else:
        with tracer.span("runner_submit", "runner", spec.key[:16]):
            with instrument_runner(tracer), sampler:
                result = runner.run(spec)
    return result, time.perf_counter() - t0, time.process_time() - c0


def traced_pairs(specs, tracer, sampler, ledger):
    """Run each spec untraced, then traced, back to back on fresh runners.

    Both runs of a pair see nearly the same host speed, so the CPU ratio
    of the traced to the untraced halves is the tracing overhead, which
    is returned as a fraction. Each run must reproduce the fingerprint
    the spec gave before.
    """
    from repro.runner import ExperimentRunner

    cpu = [0.0, 0.0]
    for spec in specs:
        for half, instruments in enumerate(((None, None), (tracer, sampler))):
            result, lat, used = submit_cold(
                ExperimentRunner(workers=1, use_cache=False), spec, *instruments)
            ledger.record("recheck", spec, 1 + half, result, lat, used)
            cpu[half] += used
    return cpu[1] / cpu[0] - 1.0


def layer_self_metrics(sampler: LayerSampler) -> dict[str, float]:
    """The ``<layer>.self_s`` metrics of the simulation layers."""
    self_s = sampler.seconds()
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics["gpu.rf_self_s"] = self_s.get("gpu.rf", 0.0)
    metrics["core.vtt_self_s"] = self_s.get("core.vtt", 0.0)
    return metrics


class InlineWorkload:
    """One named grid of apps, run cold, then resubmitted as hits."""

    def __init__(self, name: str, apps: tuple[str, ...]) -> None:
        self.name = name
        self.apps = apps

    def run(self, src: Path, seed: int, traced: bool,
            out_dir: Path) -> tuple[Ledger, dict[str, float]]:
        from repro.config import scaled_config
        from repro.runner import JobSpec

        ledger = Ledger(self.name, seed, traced)
        rng = random.Random(seed)
        config = scaled_config(num_sms=NUM_SMS, window_cycles=WINDOW_CYCLES)
        grid = [JobSpec.build(app, arch, config, SCALE)
                for app in self.apps for arch in ARCHS]
        if traced:
            return ledger, self._traced(src, grid, config, seed, rng, ledger, out_dir)

        setup_s = measure_setup(src, self.apps[0])
        sweeps = [_sweep(grid, rng, ledger, rep).metrics() for rep in range(SWEEPS)]
        return ledger, {
            "setup_s": setup_s,
            **{name: statistics.median(sweep[name] for sweep in sweeps)
               for name in sweeps[0]},
            "lb_ipc_gain": lb_ipc_gain(ledger.ipc),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": ledger.ok_rate,
        }

    @staticmethod
    def _traced(src, grid, config, seed, rng, ledger, out_dir) -> dict[str, float]:
        from perfbench.served import serve_phase

        tracer, sampler = Tracer(), LayerSampler()
        sweep = _sweep(grid, rng, ledger, 0, tracer, sampler)
        overhead = traced_pairs(rng.sample(grid, PAIRS), Tracer(), LayerSampler(),
                                ledger)
        served = serve_phase(src, grid, config, seed, ledger, tracer, out_dir)
        tracer.write(out_dir / "spans.jsonl")
        return {
            "hit_p50_ms": percentile(sweep.hit_ms, 50),
            **layer_self_metrics(sampler),
            **served,
            **ledger.counts.metrics(),
            "trace.overhead_frac": overhead,
        }


@dataclass
class Sweep:
    """Host measurements of one pass over the grid."""

    cpu_s: float = 0.0
    wall_s: float = 0.0
    instructions: int = 0
    cold_ms: list[float] = field(default_factory=list)
    hit_ms: list[float] = field(default_factory=list)

    def metrics(self) -> dict[str, float]:
        """The end-to-end timing metrics of this sweep alone."""
        return {
            "sim_kinstr_per_cpu_s": self.instructions / self.cpu_s / 1e3,
            "sweep_wall_s": self.wall_s,
            "cold_p50_ms": percentile(self.cold_ms, 50),
            "cold_p90_ms": percentile(self.cold_ms, 90),
            "hit_p95_ms": percentile(self.hit_ms, 95),
            "jobs_per_s": (len(self.cold_ms) + len(self.hit_ms)) / self.wall_s,
        }


def _sweep(grid, rng, ledger, rep: int, tracer=None, sampler=None) -> Sweep:
    """Run the grid, in a seeded order, cold on a fresh runner.

    After each cold job a seeded choice of the jobs finished so far is
    resubmitted, so memo-hit latency is sampled across the whole sweep.
    """
    from repro.runner import ExperimentRunner

    order = list(grid)
    rng.shuffle(order)
    runner = ExperimentRunner(workers=1, use_cache=False)
    sweep = Sweep()
    t0 = time.perf_counter()
    for i, spec in enumerate(order):
        result, lat, used = submit_cold(runner, spec, tracer, sampler)
        sweep.cpu_s += used
        sweep.cold_ms.append(lat * 1e3)
        sweep.instructions += result.instructions
        ledger.record("cold", spec, rep, result, lat, used)
        for _ in range(HITS_PER_JOB):
            hit = order[rng.randrange(i + 1)]
            h0 = time.perf_counter()
            with (tracer.span("runner_submit", "runner", hit.key[:16])
                  if tracer is not None else nullcontext()):
                result = runner.run(hit)
            lat = time.perf_counter() - h0
            sweep.hit_ms.append(lat * 1e3)
            ledger.record("hit", hit, rep, result, lat, row=False)
    sweep.wall_s = time.perf_counter() - t0
    return sweep
