"""Spans and per-layer self time, recorded from outside the program.

Two instruments, both used only in a traced run (``--trace 1``):

* :class:`Tracer` keeps spans in memory (name, layer, start, end, parent,
  trace id) and writes them out as JSON lines when the run ends. Spans
  are opened by benchmark code around calls into the program's public
  functions; :func:`instrument_runner` wraps the module-level functions
  the experiment runner calls per job (kernel build, the architecture's
  ``run_kernel`` entry, result assembly), so the traced path is the same
  path an untraced job takes.
* :class:`LayerSampler` samples the stack on process CPU time and gives
  self time per layer, a layer being a ``src/repro`` package. Time spent
  in builtins and the standard library is charged to the layer that
  called it. A deterministic profiler (``cProfile``) was tried first: it
  made a traced run three times slower and over-weighted call-heavy code;
  sampling costs about 1%.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

#: ``src/repro`` packages whose self time is a per-layer metric; the
#: service layer runs in other processes and is timed by spans instead.
LAYERS = ("workloads", "gpu", "memory", "core", "baselines", "engine", "runner")
#: Process CPU seconds between two stack samples.
SAMPLE_INTERVAL_S = 0.005
#: Modules singled out inside a layer: ``(metric prefix, file suffix)``.
SUB_LAYERS = (
    ("gpu.rf", os.path.join("repro", "gpu", "register_file.py")),
    ("core.vtt", os.path.join("repro", "core", "victim_tag_table.py")),
)


class Tracer:
    """In-memory span log; thread-safe, written out once at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str, trace_id: str = ""):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        if parent is not None and not trace_id:
            trace_id = parent["trace"]
        record = {"id": span_id, "parent": parent["id"] if parent else None,
                  "trace": trace_id, "name": name, "layer": layer,
                  "start": time.perf_counter() - self.origin, "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


@contextmanager
def instrument_runner(tracer: Tracer):
    """Open spans around each per-job call the experiment runner makes.

    ``repro.runner.engine`` looks these functions up in its module
    namespace on every job, so rebinding them there (and restoring them
    on exit) wraps the public path without editing the program.
    """
    import repro.runner.engine as engine

    saved = {name: getattr(engine, name)
             for name in ("execute_job", "kernel_for", "resolve", "portable")}

    def execute_job(spec):
        with tracer.span("run_job", "runner", trace_id=spec.key[:16]):
            return saved["execute_job"](spec)

    def kernel_for(app, scale):
        with tracer.span("kernel_build", "workloads"):
            return saved["kernel_for"](app, scale)

    def resolve(name):
        arch = saved["resolve"](name)
        runner = arch.runner

        def run_kernel(*args, **kwargs):
            with tracer.span("run_kernel", "gpu"):
                return runner(*args, **kwargs)

        return replace(arch, runner=run_kernel)

    def portable(value):
        with tracer.span("result_assembly", "runner"):
            return saved["portable"](value)

    wrappers = {"execute_job": execute_job, "kernel_for": kernel_for,
                "resolve": resolve, "portable": portable}
    for name, fn in wrappers.items():
        setattr(engine, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(engine, name, fn)


def layer_of(filename: str) -> str:
    """The ``src/repro`` package a source file belongs to, or ``""``."""
    marker = os.sep + "repro" + os.sep
    idx = filename.rfind(marker)
    if idx < 0 or os.sep + "src" + os.sep not in filename[:idx + 1]:
        return ""
    rest = filename[idx + len(marker):]
    head, sep, _ = rest.partition(os.sep)
    return head if sep else head.removesuffix(".py")


class LayerSampler:
    """Self time per layer by sampling the main thread's stack on CPU time.

    Every :data:`SAMPLE_INTERVAL_S` of process CPU time (``ITIMER_PROF``) the
    handler walks out from the executing frame to the first frame whose
    code lives in ``src/repro`` and counts one sample for that frame's
    layer (and for its :data:`SUB_LAYERS` module). Builtins and standard
    library code have no such frame of their own, so their time is
    charged to the layer that called them. Samples with no ``src/repro``
    frame on the stack count as ``"other"``.

    The kernel may merge timer signals that arrive faster than its tick,
    so a layer's seconds are its share of the samples times the CPU time
    measured while sampling, not the sample count times the interval.
    """

    def __init__(self) -> None:
        self.samples: dict[str, int] = {}
        self.cpu_s = 0.0
        self._file_keys: dict[str, tuple[str, ...]] = {}
        self._previous = None
        self._cpu0 = 0.0

    def _keys(self, filename: str) -> tuple[str, ...]:
        keys = self._file_keys.get(filename)
        if keys is None:
            layer = layer_of(filename)
            keys = (layer,) if layer else ()
            keys += tuple(prefix for prefix, suffix in SUB_LAYERS
                          if filename.endswith(suffix))
            self._file_keys[filename] = keys
        return keys

    def _on_sample(self, signum, frame) -> None:
        keys: tuple[str, ...] = ("other",)
        while frame is not None:
            found = self._keys(frame.f_code.co_filename)
            if found:
                keys = found
                break
            frame = frame.f_back
        for key in keys:
            self.samples[key] = self.samples.get(key, 0) + 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_s += time.process_time() - self._cpu0
        signal.signal(signal.SIGPROF, self._previous)

    def seconds(self) -> dict[str, float]:
        """CPU seconds per layer and sub-layer key."""
        total = sum(n for key, n in self.samples.items() if "." not in key)
        if not total:
            return {}
        return {key: self.cpu_s * n / total for key, n in self.samples.items()}
