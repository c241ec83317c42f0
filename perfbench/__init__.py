"""Benchmark of the repro serving stack and the Theorem 2.2.1 solver.

Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.
"""
