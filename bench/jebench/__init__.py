"""Benchmark harness for jelogic: input builders, workloads, independent
checks and span tracing.  Run it through ``bench/run.py``."""
