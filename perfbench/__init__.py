"""Benchmark of the rSLPA Spark pipelines; entry point ``perfbench/run.py``."""
