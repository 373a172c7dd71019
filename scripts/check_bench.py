"""Gate the probe-engine bench smoke report.

Four checks over ``BENCH_probe_engine.smoke.json``:

* **host** — the report names the machine and stack it was measured on
  (CPU model, vCPU count, Python/numpy/scipy versions, BLAS thread
  variables, git commit);
* **edit storm** — post-commit answers bit-identical to a fresh rebuild,
  steady-state speedup over cold starts, memo entries retained;
* **scale rows** — the 1e3/1e4 smoke tiers stay compact, every probe
  state is accounted to one plan mode, exact plans hold 1e-9 and sampled
  plans stay within their certified residual bound;
* **service latency columns** — the service row carries float p50/p95/p99.

Run after the smoke bench::

    PYTHONPATH=src python benchmarks/bench_probe_engine.py --smoke
    python scripts/check_bench.py [path/to/BENCH_probe_engine.smoke.json]

The first failed check raises ``AssertionError`` (non-zero exit).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_REPORT = Path(__file__).resolve().parent.parent / "BENCH_probe_engine.smoke.json"


def check_host(report: dict) -> None:
    host = report["host"]
    assert isinstance(host["cpu_model"], str) and host["cpu_model"], host
    assert isinstance(host["vcpus"], int) and host["vcpus"] >= 1, host
    for package in ("python", "numpy", "scipy"):
        assert isinstance(host[package], str) and host[package], (package, host)
    assert set(host["blas_threads"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
    }, host
    assert "git_commit" in host, host
    print(f"host OK: {host['cpu_model']}, {host['vcpus']} vCPU, git {host['git_commit']}")


def check_edit_storm(report: dict) -> None:
    row = report["edit_storm"]
    assert row["bit_identical_vs_fresh_rebuild"] is True, row
    assert row["steady_state_speedup"] >= 1.0, row
    assert row["memo_entries_retained"] > 0, row
    print(
        "edit-storm OK:",
        f"speedup={row['steady_state_speedup']:.2f}x,",
        f"retained={row['memo_entries_retained']},",
        f"dropped={row['memo_entries_dropped']}",
    )


def check_scale_rows(report: dict) -> None:
    rows = report["scale"]
    assert set(rows) == {"1000", "10000"}, sorted(rows)
    for n, tier in rows.items():
        assert tier["compact"] is True, (n, tier)
        for name, row in tier["rankers"].items():
            plans = row["plans"]
            total = plans["exact"] + plans["sampled"] + plans["global"]
            assert total == tier["n_states"], (n, name, plans)
            assert row["worst_exact_err"] <= 1e-9, (n, name, row)
            assert (
                row["max_residual_bound"] <= row["epsilon"] + 1e-9
            ), (n, name, row)
            print(
                f"scale n={n} {name}: {row['speedup']:.2f}x, "
                f"plans {plans['exact']}/{plans['sampled']}"
                f"/{plans['global']} (exact/sampled/global), "
                f"bound {row['max_residual_bound']:.2e}"
            )
    print("scale rows OK")


def check_service_latency(report: dict) -> None:
    service = report["service"]
    for column in (
        "latency_p50_seconds",
        "latency_p95_seconds",
        "latency_p99_seconds",
    ):
        assert isinstance(service[column], float), (column, service)
    print("service row percentiles OK")


def main(argv) -> None:
    if not __debug__:
        sys.exit("check_bench.py gates with assert statements; run it without -O")
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_REPORT
    report = json.loads(path.read_text(encoding="utf-8"))
    check_host(report)
    check_edit_storm(report)
    check_scale_rows(report)
    check_service_latency(report)


if __name__ == "__main__":
    main(sys.argv)
