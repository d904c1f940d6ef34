"""The repository benchmark: workloads, answer checks and layer tracing (see README.md)."""
