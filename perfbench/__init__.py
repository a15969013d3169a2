"""End-to-end and per-layer benchmark of the ``repro`` SpatialHadoop system.

Run ``python3 perfbench/run.py --help`` from the repository root. The
workloads, their metrics and which layer each per-layer metric should
move are described in ``perfbench/WORKLOADS.md``.
"""
