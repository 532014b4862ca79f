"""Benchmark of logotree; run it as ``python3 perfbench/run.py``."""
