"""Correctness gate applied to every simulation result the benchmark sees.

The laws are restated here, in benchmark code, rather than imported from
the program, so a change to the program cannot weaken the gate that
judges it. Three checks run on every job:

* conservation: each L1 probe is a hit or a miss, each miss is a victim
  (register-file) hit or goes past L1, hits + victim hits + misses +
  bypasses + store lines account for every memory request, and no line
  is restored from backup that was never backed up;
* determinism: a spec resolved again (another sweep, a memo-hit read, a
  traced run's overhead pair) must give the identical fingerprint;
* inline == HTTP: in a traced run, each spec served over HTTP must give
  the fingerprint it gave in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math


def fingerprint(result) -> dict:
    """Every simulated statistic of one result, as plain JSON types.

    Walks every field of each per-SM, per-L1 and per-register-file stats
    record, the memory traffic, and each extension's stats, victim tag
    table stats and load monitor state, so a counter added to any of
    them is pinned without listing it here.
    """
    extensions = []
    for ext in result.extensions:
        doc = {"kind": ext.kind}
        if ext.stats is not None:
            doc["stats"] = _fields(ext.stats)
        if ext.vtt is not None:
            doc["vtt"] = _fields(ext.vtt.stats)
        lm = ext.load_monitor
        if lm is not None:
            doc["load_monitor"] = {
                "state": lm.state.value,
                "selected_hpcs": sorted(lm.selected_hpcs),
                "windows_elapsed": lm.windows_elapsed,
                "entries": [_fields(entry) for entry in lm.entries],
            }
        extensions.append(doc)
    return {
        "cycles": result.cycles,
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "sm_stats": [_fields(s) for s in result.sm_stats],
        "l1_stats": [_fields(s) for s in result.l1_stats],
        "rf_stats": [_fields(s) for s in result.rf_stats],
        "traffic": _fields(result.traffic),
        "extensions": extensions,
    }


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def total(result, counter: str) -> int:
    """One :class:`SMStats` counter summed over SMs."""
    return sum(getattr(s, counter) for s in result.sm_stats)


def conservation_problems(result) -> list[str]:
    """Memory-pipeline conservation laws; an empty list means the job passed."""
    problems = []
    for sm_id, (stats, l1) in enumerate(zip(result.sm_stats, result.l1_stats)):
        if stats.l1_hits != l1.hits:
            problems.append(
                f"SM{sm_id}: SM l1_hits {stats.l1_hits} != cache hits {l1.hits}"
            )
        if l1.cold_misses + l1.capacity_conflict_misses != l1.misses:
            problems.append(
                f"SM{sm_id}: cold {l1.cold_misses} + capacity/conflict "
                f"{l1.capacity_conflict_misses} != probe misses {l1.misses}"
            )
        if stats.victim_hits + stats.l1_misses != l1.misses:
            problems.append(
                f"SM{sm_id}: victim hits {stats.victim_hits} + misses "
                f"{stats.l1_misses} != probe misses {l1.misses}"
            )
        served = stats.l1_hits + stats.victim_hits + stats.l1_misses + stats.bypasses
        store_lines = l1.write_hits + l1.write_misses
        if served + store_lines != stats.mem_requests:
            problems.append(
                f"SM{sm_id}: hits+victim+miss+bypass {served} + store lines "
                f"{store_lines} != mem_requests {stats.mem_requests}"
            )
    traffic = result.traffic
    if traffic.restore_read_lines > traffic.backup_write_lines:
        problems.append(
            f"restored {traffic.restore_read_lines} lines but only "
            f"{traffic.backup_write_lines} were backed up"
        )
    if result.instructions <= 0 or result.cycles <= 0:
        problems.append(
            f"empty run: {result.instructions} instructions in {result.cycles} cycles"
        )
    return problems


def sim_digest(fingerprints: dict[str, dict]) -> str:
    """One SHA-256 over every (job label -> fingerprint) pair.

    Equal digests between two commits mean every simulated statistic of
    the workload is unchanged.
    """
    blob = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class SimCounts:
    """Simulated event counts summed over a set of results.

    Used for the ``sim.*``, ``vtt.*`` and ``lb.*`` per-layer metrics; all
    of them repeat exactly for the same set of jobs.
    """

    def __init__(self) -> None:
        self.l1_hits = self.l1_misses = self.victim_hits = self.bypasses = 0
        self.mem_requests = self.dram_reads = self.backup_restore_lines = 0
        self.bank_conflicts = self.vtt_lookups = self.vtt_hits = 0
        self.throttle_events = 0

    def add(self, result) -> None:
        for s in result.sm_stats:
            self.l1_hits += s.l1_hits
            self.l1_misses += s.l1_misses
            self.victim_hits += s.victim_hits
            self.bypasses += s.bypasses
            self.mem_requests += s.mem_requests
        self.dram_reads += result.dram_reads
        self.backup_restore_lines += result.traffic.register_overhead_lines
        self.bank_conflicts += result.bank_conflicts
        for ext in result.extensions:
            vtt = getattr(ext, "vtt", None)
            if vtt is not None:
                self.vtt_lookups += vtt.stats.lookups
                self.vtt_hits += vtt.stats.hits
            stats = getattr(ext, "stats", None)
            if stats is not None:
                self.throttle_events += getattr(stats, "throttle_events", 0)

    def metrics(self) -> dict[str, float]:
        loads = self.l1_hits + self.l1_misses + self.victim_hits + self.bypasses
        return {
            "sim.l1_hit_ratio": _ratio(self.l1_hits, loads),
            "sim.victim_hit_ratio": _ratio(self.victim_hits, loads),
            "vtt.hit_ratio": _ratio(self.vtt_hits, self.vtt_lookups),
            "sim.mem_requests": self.mem_requests,
            "sim.dram_reads": self.dram_reads,
            "sim.backup_restore_lines": self.backup_restore_lines,
            "sim.bank_conflicts": self.bank_conflicts,
            "lb.throttle_events": self.throttle_events,
        }


def lb_ipc_gain(ipc: dict[tuple, float]) -> float:
    """Geomean of Linebacker IPC over baseline IPC.

    ``ipc`` maps ``(input, arch)`` to IPC; every input that has both a
    ``baseline`` and a ``linebacker`` run contributes one ratio.
    """
    ratios = [
        ipc[(key, "linebacker")] / ipc[(key, "baseline")]
        for key, arch in ipc
        if arch == "baseline" and (key, "linebacker") in ipc
    ]
    if not ratios:
        return float("nan")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_label(spec) -> str:
    """Identity of a simulated input: app, arch, scale and SM count."""
    return f"{spec.app}:{spec.arch}:{spec.scale:g}:{spec.config.gpu.num_sms}sm"


#: :class:`SMStats` counters the run table sums over SMs.
ROW_COUNTERS = ("l1_hits", "victim_hits", "l1_misses", "bypasses", "mem_requests")


class Ledger:
    """Every job a run resolved, with the outcome of its checks.

    The first cold result of each input fixes its fingerprint; any later
    resolution of the same input (another sweep, a memo-hit read, an
    overhead pair, the HTTP service) must match it exactly. Only rep-0
    cold results feed the simulated counts and IPC, so those repeat
    exactly however many sweeps a run makes.
    """

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload, self.seed, self.traced = workload, seed, traced
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.rows: list[dict] = []
        self.fingerprints: dict[str, dict] = {}
        self.counts = SimCounts()
        self.ipc: dict[tuple, float] = {}

    def record(self, kind: str, spec, rep: int, result, latency_s: float,
               cpu_s: "float | None" = None, row: bool = True) -> bool:
        """Check one resolved job; returns whether it passed."""
        self.attempted += 1
        label = job_label(spec)
        problems = conservation_problems(result)
        fp = fingerprint(result)
        known = self.fingerprints.get(label)
        if known is None:
            self.fingerprints[label] = fp
        elif known != fp:
            diff = sorted(k for k in fp if fp[k] != known.get(k))
            problems.append(f"{kind} rep {rep} differs from first run on {diff}")
        if kind == "cold" and rep == 0:
            self.counts.add(result)
            self.ipc[((spec.app, spec.scale), spec.arch)] = result.ipc
        if problems:
            self._fail(f"{label} [{kind}]: {problems[0]}")
        if row:
            self.rows.append({
                "workload": self.workload, "seed": self.seed,
                "traced": int(self.traced), "rep": rep, "kind": kind,
                "app": spec.app, "arch": spec.arch, "scale": spec.scale,
                "num_sms": spec.config.gpu.num_sms,
                "latency_ms": round(latency_s * 1e3, 3),
                "cpu_s": "" if cpu_s is None else round(cpu_s, 4),
                "instructions": result.instructions, "cycles": result.cycles,
                "ipc": round(result.ipc, 6),
                **{c: total(result, c) for c in ROW_COUNTERS},
                "dram_reads": result.dram_reads,
                "fingerprint": sim_digest({label: fp}),
                "ok": int(not problems), "problem": problems[0] if problems else "",
            })
        return not problems

    def error(self, what: str, exc: BaseException) -> None:
        """A job that failed, was refused or timed out."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    @property
    def ok_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    @property
    def digest(self) -> str:
        return sim_digest(self.fingerprints)

