"""The measurement spine: the repo's one benchmark (see README.md here).

Run it with ``python3 benchmarks/spine/run.py``; ``BENCHMARK.json`` at the
repository root declares its workloads, metrics and bounds.
"""
