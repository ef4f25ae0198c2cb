"""Self-test of the benchmark's own gates; run from the repository root::

    python3 perfbench/selftest.py

It checks, in a few seconds, that

* the result line accepts exactly the metrics ``BENCHMARK.json``
  declares and refuses a set that differs from them;
* a simulation result passes the correctness gate, and the same result
  with one counter altered is counted as failed: by the conservation
  laws alone on a first run, and by the determinism check against the
  unaltered run for every counter in the fingerprint;
* ``run.py`` exits non-zero without printing a result when the program
  sources are absent.

Exit status 0 means every check held.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import Ledger  # noqa: E402
from perfbench.metrics import declared, result_line  # noqa: E402


def _bump(path: str, delta: int = 1):
    """An alteration adding ``delta`` to the counter at dotted ``path``."""
    *parents, attr = path.split(".")

    def alter(result):
        record = result
        for name in parents:
            record = record[int(name)] if name.isdigit() else getattr(record, name)
        setattr(record, attr, getattr(record, attr) + delta)

    return alter


#: Alterations the conservation laws alone must catch, on a first run.
BREAK_CONSERVATION = (
    ("SM l1_hits", _bump("sm_stats.0.l1_hits")),
    ("SM victim_hits", _bump("sm_stats.0.victim_hits")),
    ("SM l1_misses", _bump("sm_stats.0.l1_misses", -1)),
    ("SM bypasses", _bump("sm_stats.0.bypasses")),
    ("SM mem_requests", _bump("sm_stats.0.mem_requests")),
    ("restored lines", lambda r: setattr(r.traffic, "restore_read_lines",
                                         r.traffic.backup_write_lines + 1)),
)
#: Alterations no law covers: the determinism check against the
#: unaltered run must catch them (and every alteration above).
BREAK_DETERMINISM = BREAK_CONSERVATION + tuple(
    (path, _bump(path)) for path in (
        "sm_stats.0.instructions",
        "dram_reads",
        "traffic.demand_read_lines",
        "traffic.store_write_lines",
        "l1_stats.0.evictions",
        "rf_stats.0.reads",
        "extensions.0.stats.throttle_events",
        "extensions.0.vtt.stats.lookups",
        "extensions.0.vtt.stats.hits",
        "extensions.0.load_monitor.windows_elapsed",
    )
)


def check_tables() -> list[str]:
    problems = []
    for traced in (False, True):
        table = declared(ROOT / "BENCHMARK.json", traced)
        values = dict.fromkeys(table, 1.0)
        printed = json.loads(result_line(True, 1, 0, values, table))["metrics"]
        if {k: v["unit"] for k, v in printed.items()} != table:
            problems.append(f"result line (traced={traced}) printed {printed}")
        for name in (next(iter(table)), "undeclared"):
            altered = dict(values)
            if altered.pop(name, None) is None:
                altered[name] = 1.0
            try:
                result_line(True, 1, 0, altered, table)
                problems.append(f"result_line (traced={traced}) accepted a "
                                f"metric set differing on {name}")
            except ValueError:
                pass
    return problems


def check_altered_counters() -> list[str]:
    from repro.config import scaled_config
    from repro.runner import ExperimentRunner, JobSpec

    spec = JobSpec.build("GA", "linebacker", scaled_config(num_sms=1), 0.01)
    result = ExperimentRunner(workers=1, use_cache=False).run(spec)
    problems = []
    for law, alterations, runs in (("conservation", BREAK_CONSERVATION, 1),
                                   ("determinism", BREAK_DETERMINISM, 2)):
        for name, alter in alterations:
            ledger = Ledger("selftest", 0, False)
            if runs == 2:
                ledger.record("cold", spec, 0, result, 0.0)
            altered = copy.deepcopy(result)
            alter(altered)
            ledger.record("recheck", spec, 1, altered, 0.0)
            if (ledger.attempted, ledger.failed) != (runs, 1):
                problems.append(f"{law}: altered {name}: counted {ledger.failed} "
                                f"of {ledger.attempted} jobs as failed, expected 1")
    ledger = Ledger("selftest", 0, False)
    ledger.record("cold", spec, 0, result, 0.0)
    ledger.record("recheck", spec, 1, copy.deepcopy(result), 0.0)
    if ledger.failed:
        problems.append(f"an unaltered result failed: {ledger.problems}")
    return problems


def check_refuses_without_program() -> list[str]:
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lb-sensitive",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"run.py without program sources exited {done.returncode} "
                f"and printed {done.stdout.strip()!r}"]
    return []


def main() -> int:
    problems = check_tables() + check_altered_counters() + check_refuses_without_program()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
