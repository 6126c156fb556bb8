"""crnkit benchmark: inputs, jobs, checks, tracing and metrics."""
