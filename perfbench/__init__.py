"""Benchmark harness for anchorkit; the entry point is ``perfbench/run.py``."""
