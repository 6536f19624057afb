"""The CI perf-regression gate (``python -m benchmarks.perf.check_regression``).

perfbench (``perfbench/run.py``) is the benchmark that judges every
performance claim; this package only guards four numbers in CI against
the newest committed ``BENCH_<date>.json``.  See ``docs/performance.md``.
"""
