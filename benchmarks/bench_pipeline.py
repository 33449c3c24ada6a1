"""Parallel pipeline — wall time and byte-identity vs the sequential pass.

Not a paper table: this bench characterises ``run_analysis(jobs=N)``,
which shards the ingest of both channels over a process pool and runs
everything after it in the parent.  Two claims are checked, one
unconditionally:

* **identity** — the parallel run must reproduce the sequential run
  exactly: the same ``analysis_signature`` (sanitised failures, matches,
  coverage, flap episodes), the same drop-ledger JSON, and the same
  timelines key order on both channels.  Both runs are lenient so each
  produces a ledger to compare.  Any divergence fails the bench on any
  machine, including single-core CI runners.
* **speedup** — with ``--jobs 4`` on a host that actually has four
  cores, end-to-end wall time must be at least twice the sequential
  pass.  On hosts with fewer cores the ratio is still measured and
  reported, but not asserted: four workers time-slicing one core cannot
  beat one process on that core, and pretending otherwise would make
  the bench flaky exactly where CI runs it.

Results land in ``BENCH_pipeline.json`` at the repo root (and a text
table under ``benchmarks/results/``) so CI can archive them.

Usage::

    python benchmarks/bench_pipeline.py            # paper-scale, 180 days
    python benchmarks/bench_pipeline.py --quick    # CI smoke, 21 days
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from _bench_utils import emit  # noqa: E402
from repro import ScenarioConfig, run_analysis, run_scenario  # noqa: E402
from repro.faults.chaos import analysis_signature  # noqa: E402
from repro.faults.ledger import IngestReport  # noqa: E402

SPEEDUP_FLOOR = 2.0
CORES_REQUIRED = 4


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def results_identical(sequential, parallel) -> bool:
    """Byte-identity between two lenient analysis runs."""
    return (
        analysis_signature(parallel) == analysis_signature(sequential)
        and parallel.ingest.to_json() == sequential.ingest.to_json()
        and list(parallel.syslog.timelines) == list(sequential.syslog.timelines)
        and list(parallel.isis.timelines) == list(sequential.isis.timelines)
    )


def host_info() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - columnar falls back to scalar
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cores": available_cores(),
    }


def build_dataset(seed: int, days: float, fleet_preset):
    """The workload: a scenario campaign, or a generated fleet corpus."""
    if fleet_preset is None:
        return run_scenario(ScenarioConfig(seed=seed, duration_days=days)), None
    import tempfile

    from repro import Dataset
    from repro.fleet import build_network, preset, write_corpus

    spec = preset(fleet_preset, seed=seed)
    with tempfile.TemporaryDirectory(prefix="bench_pipeline_") as tmp:
        write_corpus(spec, tmp, dataset=True)
        return Dataset.load(tmp, build_network(spec)), spec


def run_bench(seed: int, days: float, jobs: int, fleet_preset=None) -> dict:
    dataset, fleet_spec = build_dataset(seed, days, fleet_preset)

    started = time.perf_counter()
    sequential = run_analysis(dataset, strict=False, report=IngestReport())
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_analysis(
        dataset, strict=False, report=IngestReport(), jobs=jobs
    )
    parallel_seconds = time.perf_counter() - started

    host = host_info()
    cores = host["cores"]
    speedup = sequential_seconds / parallel_seconds
    return {
        "seed": seed,
        "days": days,
        "corpus": (
            "scenario"
            if fleet_spec is None
            else f"fleet preset {fleet_spec.preset}"
        ),
        "corpus_lines": dataset.syslog_text.count("\n"),
        "corpus_lsp_records": len(dataset.lsp_records),
        "corpus_routers": len(dataset.network.routers),
        "jobs": jobs,
        "host": host,
        "sequential_seconds": round(sequential_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "identical": results_identical(sequential, parallel),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": cores >= CORES_REQUIRED and jobs >= CORES_REQUIRED,
        "isis_failures": len(sequential.isis_failures),
        "syslog_failures": len(sequential.syslog_failures),
        "matched_pairs": len(sequential.failure_match.pairs),
        "flap_episodes": len(sequential.flap_episodes),
    }


def render(result: dict) -> str:
    lines = [
        "bench_pipeline — parallel vs sequential run_analysis",
        f"  campaign        seed {result['seed']}, "
        f"{result['days']:g} days",
        f"  corpus          {result['corpus']}: "
        f"{result['corpus_lines']:,} syslog lines, "
        f"{result['corpus_lsp_records']:,} LSP records, "
        f"{result['corpus_routers']:,} routers",
        f"  host            {result['host']['cores']} core(s), "
        f"python {result['host']['python']}, "
        f"numpy {result['host']['numpy']}",
        f"  sequential      {result['sequential_seconds']:.3f} s",
        f"  jobs={result['jobs']:<11} {result['parallel_seconds']:.3f} s",
        f"  speedup         {result['speedup']:.2f}x"
        + (
            ""
            if result["speedup_asserted"]
            else f"  (not asserted: {result['host']['cores']} core(s) available)"
        ),
        f"  identical       {result['identical']}",
        f"  findings        {result['isis_failures']} isis / "
        f"{result['syslog_failures']} syslog failures, "
        f"{result['matched_pairs']} matched, "
        f"{result['flap_episodes']} flap episodes",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: 21 days instead of 180",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--days",
        type=float,
        default=None,
        help="override campaign length (default: 180, or 21 with --quick)",
    )
    parser.add_argument(
        "--fleet-preset",
        default=None,
        help="benchmark against a generated fleet corpus (tiny/small/fleet) "
        "instead of a scenario campaign; --days is ignored",
    )
    args = parser.parse_args(argv)
    days = args.days if args.days is not None else (21.0 if args.quick else 180.0)

    result = run_bench(args.seed, days, args.jobs, args.fleet_preset)
    emit("bench_pipeline", render(result))
    (_ROOT / "BENCH_pipeline.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    if not result["identical"]:
        print("FAIL: parallel results diverge from sequential", file=sys.stderr)
        return 1
    if result["speedup_asserted"] and result["speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x below the "
            f"{SPEEDUP_FLOOR:.1f}x floor on a {result['host']['cores']}-core host",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
