"""The repository benchmark: workloads, checks and layer tracing (see ``perfbench/run.py``)."""
