"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; :mod:`perfbench.run` documents the command line.
"""
