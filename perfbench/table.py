"""The run table: one CSV row per simulated job, plus its column dictionary.

Rows are one per (workload, app, arch, scale, rep, kind), where ``kind``
says on which path the job resolved. ``run_table_columns.md`` beside the
CSV describes every column, its unit and where its value comes from.
"""

from __future__ import annotations

import csv
from pathlib import Path

#: (column, unit, meaning and source)
COLUMNS = (
    ("workload", "", "benchmark workload name (--workload)"),
    ("seed", "", "benchmark seed (--seed); orders and samples jobs only"),
    ("traced", "bool", "1 when the row comes from a traced run (--trace 1)"),
    ("rep", "", "sweep over the job grid, from 0; for recheck rows 1 is the "
                "untraced and 2 the traced run of a pair"),
    ("kind", "", "cold: a simulating submission on a fresh runner; recheck: a "
                 "traced run's overhead pair; http_cold: the spec served by "
                 "the HTTP service in a traced run"),
    ("app", "", "suite application (Table 2 name)"),
    ("arch", "", "registered architecture name"),
    ("scale", "", "workload scale factor passed to the trace generator"),
    ("num_sms", "count", "simulated SMs in the configuration"),
    ("latency_ms", "ms", "host wall time, submit to result, benchmark clock"),
    ("cpu_s", "s", "host CPU seconds of the benchmark process; empty when "
                   "the job ran in a service worker"),
    ("instructions", "count", "simulated warp instructions"),
    ("cycles", "count", "simulated cycles"),
    ("ipc", "instr/cycle", "simulated IPC = instructions / cycles"),
    ("l1_hits", "count", "L1 hits summed over SMs"),
    ("victim_hits", "count", "register-file victim hits summed over SMs"),
    ("l1_misses", "count", "L1 misses past the victim path"),
    ("bypasses", "count", "L1 bypasses"),
    ("mem_requests", "count", "memory requests issued past L1"),
    ("dram_reads", "count", "DRAM reads"),
    ("fingerprint", "", "sha256 prefix of the job's statistics fingerprint"),
    ("ok", "bool", "1 when every correctness check passed"),
    ("problem", "", "first failed check, empty when ok"),
)

FIELDS = tuple(name for name, _unit, _doc in COLUMNS)


def write_run_table(rows: list[dict], directory: Path) -> None:
    with open(directory / "run_table.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in FIELDS})
    lines = ["# run_table.csv columns", "",
             "| column | unit | meaning and source |", "|---|---|---|"]
    lines += [f"| `{name}` | {unit} | {doc} |" for name, unit, doc in COLUMNS]
    (directory / "run_table_columns.md").write_text("\n".join(lines) + "\n")
