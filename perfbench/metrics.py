"""Declared metrics and the printed result line.

``BENCHMARK.json`` at the repository root is the one declaration of the
metric names and units. A run prints exactly the declared metrics of
its kind; :func:`result_line` refuses any other set, so a run whose
metrics drift from that file fails instead of printing a result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def declared(benchmark_json: Path, traced: bool) -> dict[str, str]:
    """Name -> unit of the ``per_layer`` (traced) or ``end_to_end`` metrics."""
    doc = json.loads(benchmark_json.read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if traced else "end_to_end"]}


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], table: dict[str, str]) -> str:
    """The final stdout line: exactly the keys of ``table``, with units."""
    if set(values) != set(table):
        raise ValueError(
            f"metrics {sorted(set(values) ^ set(table))} do not match the "
            "declared table"
        )
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
