"""End-to-end benchmark of the ExES reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh interpreter and prints its metrics; see
``run.py`` for the workloads and ``BENCHMARK.json`` at the repository root
for the metric contract.
"""
