"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload lb-sensitive --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload under spans and a stack sampler, serves it over HTTP and prints
the per-layer metrics. Either way every job's statistics pass the correctness gate
(:mod:`perfbench.checks`). Each workload does a fixed amount of work,
sized to take about the ``run_seconds`` of ``BENCHMARK.json`` on a
2-core host, so its figures compare across runs; ``--seconds`` is
accepted for the common command line and does not change that work.

The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``, the line before it the
workload's ``sim_digest``. The run table, the spans (traced runs) and a
summary land in ``.perfbench_out/<workload>/seed<N>-trace<T>/``.

Exit status is 2, with no result printed, when the program sources
(``src/repro``) are not beside the benchmark, and non-zero, again with no
result, when the metrics a run measured differ from those
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every run must finish well inside the three minutes it is allowed.
DEADLINE_S = 170


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S}s")


def build_workloads() -> dict:
    from perfbench.inline import InlineWorkload

    return {
        # Cache-sensitive apps: victim hits are frequent, so the core
        # (LM, VTT, throttle, backup), baselines and memory layers work.
        "lb-sensitive": InlineWorkload("lb-sensitive", ("S2", "KM", "GE", "MV", "BC")),
        # Cache-insensitive apps: Linebacker selects (almost) no loads;
        # trace generation, warp issue and streaming DRAM do the work.
        "lb-insensitive": InlineWorkload("lb-insensitive", ("LI", "GA", "SR2", "HS", "2D")),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.metrics import declared, result_line
    from perfbench.table import write_run_table

    workloads = build_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads)}")

    traced = bool(args.trace)
    out_dir = (ROOT / ".perfbench_out" / args.workload
               / f"seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        ledger, values = workloads[args.workload].run(SRC, args.seed, traced, out_dir)
    except DeadlineExceeded as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    write_run_table(ledger.rows, out_dir)
    correct = ledger.failed == 0
    summary = {"workload": args.workload, "seed": args.seed, "traced": traced,
               "sim_digest": ledger.digest, "attempted": ledger.attempted,
               "failed": ledger.failed, "problems": ledger.problems,
               "metrics": values}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    line = result_line(correct, ledger.attempted, ledger.failed, values,
                       declared(ROOT / "BENCHMARK.json", traced))
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"sim_digest {args.workload} {ledger.digest}")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
