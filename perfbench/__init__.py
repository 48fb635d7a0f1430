"""Repository benchmark: workloads, outside-in layer tracing, runner."""
