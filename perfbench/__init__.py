"""Benchmark of kwslab: train, score and evaluate workloads (see README.md)."""
