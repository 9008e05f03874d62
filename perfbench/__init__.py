"""The repository's benchmark: two inline, hermetic workloads with
outside-in layer spans.  Entry point: ``python3 perfbench/run.py``."""
