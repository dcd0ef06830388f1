"""The repository's benchmark: three seeded workloads, one command (run.py)."""
