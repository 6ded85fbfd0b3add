"""The repository benchmark: three seeded workloads driven through the
public API, with end-to-end and per-layer metrics (see README.md)."""
