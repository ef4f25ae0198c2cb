"""The service phase of a traced run: the HTTP service under a closed loop.

A traced run (``--trace 1``) boots ``python -m repro serve --workers 2``
on a fresh cache directory and drives it through ``Session.connect``
from this one process, with two client threads in a closed loop (each
sends its next job only when the previous one has its result). The
seeded sequence mixes three kinds of job over the workload's grid:

* ``cold``: each spec of the grid, submitted once; a fleet worker
  simulates it and writes the shared result cache;
* ``hit``: a resubmission of a finished job, answered from the
  coordinator's job table without simulating;
* ``dup``: the spec the other thread is waiting on (the latest cold spec
  when it waits on none), which the coordinator coalesces into the job
  while that is in flight; ``coordinator.coalesced`` counts those.

Every served result must match the fingerprint the same spec gave
in-process earlier in the run (inline == HTTP). At teardown every worker
process the fleet started must be gone; a leftover worker counts as a
failed job.

The phase is traced only: with two workers, the coordinator and the
client sharing two cores, its latencies follow the host's load from run
to run by more than the untraced metrics' bounds allow, so it reports
per-layer metrics, which have no bound.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from perfbench.tracing import Tracer

WORKERS = 2
CLIENT_THREADS = 2
#: Resubmissions of finished jobs: ten lie beyond the 95th percentile.
HITS = 200
DUPS = 10
JOB_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _proc_alive(pid: int) -> bool:
    """True for a live, non-zombie process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """One ``python -m repro serve`` process and the workers it spawned."""

    def __init__(self, src: Path, cache_dir: Path, log_path: Path) -> None:
        self.src = src
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.url = ""
        self.proc: "subprocess.Popen | None" = None
        self.worker_pids: set[int] = set()

    def start(self) -> float:
        """Boot; returns seconds until ``/v1/healthz`` reports every worker alive."""
        from repro.service import ServiceClient, ServiceError

        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        env = dict(os.environ, PYTHONPATH=str(self.src))
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", str(port), "--workers", str(WORKERS),
                 "--cache-dir", str(self.cache_dir)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=env,
            )
        client = ServiceClient(self.url, timeout=5.0)
        while time.perf_counter() - t0 < BOOT_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}; "
                                   f"see {self.log_path}")
            try:
                if client.healthz()["workers_alive"] == WORKERS:
                    elapsed = time.perf_counter() - t0
                    self.fleet()  # records the worker pids
                    return elapsed
            except ServiceError:
                pass
            time.sleep(0.01)
        raise TimeoutError(f"serve not healthy after {BOOT_TIMEOUT_S}s")

    def fleet(self) -> dict:
        from repro.service import ServiceClient

        doc = ServiceClient(self.url, timeout=10.0).fleet()
        self.worker_pids.update(w["pid"] for w in doc["fleet"]["workers"])
        return doc

    def stop(self) -> list[str]:
        """Graceful teardown; returns one problem per process left running."""
        problems = []
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                problems.append("serve ignored SIGINT for 20s")
                self.proc.kill()
                self.proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        for pid in sorted(self.worker_pids):
            while _proc_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _proc_alive(pid):
                problems.append(f"orphan worker pid {pid} after teardown")
                os.kill(pid, signal.SIGKILL)
        return problems


class _ClosedLoop:
    """Two client threads pulling a shared, seeded sequence of jobs."""

    def __init__(self, session, specs, ops, ledger, seed, tracer) -> None:
        self.session, self.specs, self.ops = session, specs, ops
        self.ledger, self.seed, self.tracer = ledger, seed, tracer
        self.lock = threading.Lock()
        self.finished_cond = threading.Condition(self.lock)
        self.next_op = self.next_cold = 0
        self.inflight: dict[int, object] = {}
        self.last_cold = None
        self.finished: list = []
        self.coalesced = 0
        self._count_coalesced(session._client)

    def _count_coalesced(self, client) -> None:
        """Count submissions the coordinator folded into an in-flight job.

        The POST response says ``coalesced`` for any known key; only those
        whose job is not yet done were concurrent duplicates, the rest
        were resubmissions of finished jobs.
        """
        post = client.submit

        def submit(spec):
            doc = post(spec)
            if doc["coalesced"] and doc["status"] != "done":
                with self.lock:
                    self.coalesced += 1
            return doc

        client.submit = submit

    def run(self) -> None:
        threads = [threading.Thread(target=self._loop, args=(tid,),
                                    name=f"client-{tid}")
                   for tid in range(CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _take(self, tid: int):
        with self.lock:
            if self.next_op >= len(self.ops):
                return None, None
            kind = self.ops[self.next_op]
            self.next_op += 1
            if kind == "cold":
                spec = self.specs[self.next_cold]
                self.next_cold += 1
                self.last_cold = spec
            elif kind == "dup":
                others = [s for t, s in self.inflight.items() if t != tid]
                spec = others[0] if others else self.last_cold
            else:
                spec = None
            if spec is not None:
                self.inflight[tid] = spec
            return kind, spec

    def _loop(self, tid: int) -> None:
        rng = random.Random(self.seed * 1_000 + tid)
        while True:
            kind, spec = self._take(tid)
            if kind is None:
                return
            if kind == "hit":
                with self.finished_cond:
                    if not self.finished_cond.wait_for(lambda: self.finished,
                                                       timeout=JOB_TIMEOUT_S):
                        self.ledger.error("http_hit", TimeoutError("no finished job"))
                        continue
                    spec = rng.choice(self.finished)
            t0 = time.perf_counter()
            try:
                result = self._submit(spec)
            except Exception as exc:  # a refused or failed job is counted, not fatal
                with self.lock:
                    self.inflight.pop(tid, None)
                    self.ledger.error(f"http_{kind} {spec.label}", exc)
                continue
            t1 = time.perf_counter()
            with self.finished_cond:
                self.inflight.pop(tid, None)
                if self.ledger.record(f"http_{kind}", spec, 0, result, t1 - t0,
                                      row=kind == "cold") and kind == "cold":
                    self.finished.append(spec)
                    self.finished_cond.notify_all()

    def _submit(self, spec):
        with self.tracer.span("job", "service", spec.key[:16]):
            return self.session.submit(spec).result(timeout=JOB_TIMEOUT_S)


def _trace_client(client, tracer: Tracer, payload_bytes: list) -> None:
    """Open a span around every HTTP round trip the client makes."""
    request = client._request

    def traced_request(method, path, body=None):
        with tracer.span("http", "service") as span:
            status, doc = request(method, path, body)
        if method == "POST":
            span["name"] = "http_submit"
        elif path.endswith("/result"):
            span["name"] = "http_fetch" if status == 200 else "http_poll"
            if status == 200:
                payload_bytes.append(len(doc["payload"]["b64"]))
        return status, doc

    client._request = traced_request


def serve_phase(src: Path, grid, config, seed: int, ledger, tracer: Tracer,
                out_dir: Path) -> dict[str, float]:
    """Serve ``grid`` (built for ``config``) and return the service metrics.

    The server's result cache is a fresh directory under ``out_dir``,
    removed at teardown; its log is kept as ``out_dir/serve.log``.
    """
    from repro.api import Session

    rng = random.Random(seed)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=out_dir))
    server = Server(src, cache_dir, out_dir / "serve.log")
    try:
        boot_s = server.start()
        session = Session.connect(server.url, config=config)
        specs = [session.spec(spec.app, spec.arch, scale=spec.scale) for spec in grid]
        rng.shuffle(specs)
        payload_bytes: list[int] = []
        _trace_client(session._client, tracer, payload_bytes)
        rest = ["cold"] * (len(specs) - CLIENT_THREADS) + ["hit"] * HITS + ["dup"] * DUPS
        rng.shuffle(rest)
        loop = _ClosedLoop(session, specs, ["cold"] * CLIENT_THREADS + rest,
                           ledger, seed, tracer)
        workers = set(server.worker_pids)
        loop.run()
        fleet_doc = server.fleet()
        if server.worker_pids != workers:
            ledger.error("fleet", RuntimeError(
                f"workers replaced during the run: {sorted(server.worker_pids)}"))
    finally:
        for problem in server.stop():
            ledger.error("teardown", RuntimeError(problem))
        shutil.rmtree(cache_dir, ignore_errors=True)

    fleet = fleet_doc["fleet"]
    submits = fleet_doc["submits"]
    fetches = tracer.durations("http_fetch")
    polls = tracer.durations("http_poll")
    return {
        "service.boot_s": boot_s,
        "service.submit_ms": statistics.median(tracer.durations("http_submit")) * 1e3,
        "service.result_fetch_ms": statistics.median(fetches) * 1e3,
        "service.polls_per_job": (len(polls) + len(fetches)) / len(fetches),
        "service.result_bytes": statistics.mean(payload_bytes),
        "fleet.dispatched": fleet["dispatched"],
        "fleet.retried": fleet["retried"],
        "fleet.requeued": fleet["requeued"],
        "fleet.worker_deaths": fleet["worker_deaths"],
        "coordinator.coalesced": loop.coalesced,
        "cache.hit_ratio": (submits - fleet["dispatched"]) / submits,
    }
