"""The repository benchmark: three workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload paper-campaign --seed 2013 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 7     # every workload

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is a separate run that also drives the layers one public
call at a time under in-memory spans, writes a Chrome trace under
``perfbench/out/`` and prints a per-layer table.  Every run checks the
program's outputs against a reference and exits non-zero on a mismatch.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from spans import render_layers  # noqa: E402
from workloads import REFERENCE_DIGESTS, WORKLOADS, Workload  # noqa: E402

#: Longest one child task may run.
CHILD_CEILING = 170.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: Fewest timed analyses in a batch run; its metrics are their medians.
MIN_ANALYSES = 3
#: Iterations of the calibration loop (0.12-0.23 s of pure Python on a
#: 2-core x86 container, depending on the host's load).
CALIBRATION_ROUNDS = 1_500_000

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ingest_latency_p50_ms": "ms",
    "ingest_latency_p95_ms": "ms",
}

PER_LAYER: Dict[str, str] = {
    "host.calib_s": "s",
    "simulation.generate_s": "s",
    "fleet.generate_s": "s",
    "dataset.save_s": "s",
    "dataset.load_s": "s",
    "columnar.parse_s": "s",
    "columnar.entries": "count",
    "syslog.classify_s": "s",
    "syslog.link_messages": "count",
    "syslog.useful_ratio": "ratio",
    "isis.decode_s": "s",
    "isis.listener_s": "s",
    "isis.lsps_rejected": "count",
    "isis.changes": "count",
    "isis.change_ratio": "ratio",
    "isis.classify_s": "s",
    "engine.merge_s": "s",
    "engine.timeline_s": "s",
    "engine.sanitize_s": "s",
    "engine.match_s": "s",
    "engine.coverage_s": "s",
    "engine.flaps_s": "s",
    "engine.transitions": "count",
    "engine.failures": "count",
    "engine.kept": "count",
    "engine.matched_pairs": "count",
    "engine.flap_episodes": "count",
    "service.feed_s": "s",
    "service.lines": "count",
    "service.lag_max_lines": "count",
    "service.shed_lines": "count",
    "stream.checkpoint_s": "s",
    "stream.checkpoints": "count",
    "stream.checkpoint_bytes_first": "bytes",
    "stream.checkpoint_bytes_last": "bytes",
    "stream.checkpoint_share": "ratio",
    "gen.late_p99_ms": "ms",
    "trace.overhead_s": "s",
}


# -------------------------------------------------------------------- host
def calibrate() -> float:
    """Time a fixed pure-Python loop: a slow host shows up here first."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def host_record() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ children
def child(task: str, **arguments: Any) -> Dict[str, Any]:
    """Run one task of ``child.py`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), task, json.dumps(arguments)],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_CEILING,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{task} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- batch
def run_batch(
    workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    spec = asdict(workload)
    setups: List[Dict[str, Any]] = []
    for index in range(1 if trace else SETUPS):
        corpus = run_dir / f"corpus-{index}"
        setups.append(child("setup", workload=spec, seed=seed, out=str(corpus)))
        if index:
            shutil.rmtree(run_dir / f"corpus-{index - 1}")
    os.sync()  # the corpus's write-back must not overlap the timed analyses
    counts = setups[-1]["counts"]
    records = counts["lines"] + counts["lsps"]

    # Fresh forked analyses for ``seconds`` after a warm-up, at least
    # MIN_ANALYSES of them (a traced run only needs the minimum).
    batch = child(
        "analyze",
        workload=spec,
        seed=seed,
        corpus=str(corpus),
        seconds=0.0 if trace else seconds,
        minimum=MIN_ANALYSES,
    )
    analyses = batch["samples"]
    reference = REFERENCE_DIGESTS.get((workload.name, seed))
    if reference is None:
        reference = child(
            "reference", workload=spec, seed=seed, corpus=str(corpus)
        )["digest"]
    wrong = sum(a["digest"] != reference for a in analyses)
    verdict = {
        "attempted": records * len(analyses),
        "failed": records * wrong,
        "checks": {"digest matches scalar reference": wrong == 0},
        "counts": counts,
    }

    walls = [a["analyze_s"] for a in analyses]
    verdict["samples"] = walls
    wall = statistics.median(walls)
    if not trace:
        # Medians over the run: on a shared host single analyses swing by
        # a third either way, so neither one analysis nor the fastest of a
        # few is a steady estimate.
        return verdict, {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "analyze_s": wall,
            "analyze_cpu_s": statistics.median(a["analyze_cpu_s"] for a in analyses),
            "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a in analyses),
            # Every record of an archived campaign is due when the load
            # starts and covered when the result returns, so in a batch
            # analysis each record's latency is its wall time.
            "ingest_latency_p50_ms": 1000.0 * wall,
            "ingest_latency_p95_ms": 1000.0 * wall,
        }

    traced = child(
        "traced",
        workload=spec,
        seed=seed,
        corpus=str(corpus),
        trace_path=str(trace_file(workload, seed)),
    )
    verdict["checks"]["traced digest matches untraced"] = (
        traced["digest"] == analyses[0]["digest"]
    )
    if traced["digest"] != analyses[0]["digest"]:
        verdict["failed"] = verdict["attempted"]
    values = traced_values(verdict, traced, setups[0]["layers"])
    values["trace.overhead_s"] = traced["elapsed_s"] - wall
    return verdict, values


# -------------------------------------------------------------------- tenant
def run_tenant(
    workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from live import feed, percentile, start_service

    setups: List[float] = []
    service = None
    try:
        for index in range(1 if trace else SETUPS):
            if service is not None:
                service.stop()
                shutil.rmtree(run_dir / f"profile-{index - 1}")
                shutil.rmtree(run_dir / f"state-{index - 1}")
            profile = run_dir / f"profile-{index}"
            generated = child(
                "setup", workload=asdict(workload), seed=seed, out=str(profile)
            )
            service, ready = start_service(
                SRC, run_dir, profile, run_dir / f"state-{index}"
            )
            setups.append(generated["setup_s"] + ready)
        # The run measures ``seconds`` of feed: the profile's first
        # seconds x rate lines, the same count at every seed (a 120-day
        # profile holds about 19,500 lines or more).
        lines = (profile / "syslog.log").read_text(encoding="utf-8").splitlines()
        live = feed(service, lines[: round(seconds * workload.rate)], workload.rate)
        exit_code = service.stop()
    except BaseException:
        if service is not None:
            service.kill()
        raise
    report = service.report()
    journalled = service.journal.read_bytes().count(b"\n")
    reference = child(
        "tenant_reference", profile=str(profile), journal=str(service.journal)
    )

    late = report["ledger"].get("service", {}).get("reasons", {}).get("late-arrival", 0)
    unattributed = (live.sent - journalled - live.shed) + max(
        0, report["lines_seen"] - report["events"] - report["dropped"]
    )
    checks = {
        "serve exited cleanly": exit_code == 0,
        "signature matches replay_lines": report["signature"] == reference["signature"],
        "sent = journalled + shed": live.sent == journalled + live.shed,
        "worker saw every journalled line": report["lines_seen"] == journalled,
    }
    # A wrong result fails every line; otherwise only the lost ones failed.
    lost = live.shed + late + unattributed
    verdict = {
        "attempted": live.sent,
        "failed": lost if all(checks.values()) else live.sent,
        "checks": checks,
        "counts": generated["counts"],
    }
    if not trace:
        return verdict, {
            "setup_s": statistics.median(setups),
            "analyze_s": live.caught_up_s,
            "analyze_cpu_s": live.cpu_s,
            "peak_rss_mb": live.peak_rss_mb,
            "ingest_latency_p50_ms": percentile(live.latencies_ms, 0.50),
            "ingest_latency_p95_ms": percentile(live.latencies_ms, 0.95),
        }

    traced = child(
        "tenant_traced",
        profile=str(profile),
        journal=str(service.journal),
        checkpoint=str(run_dir / "traced-checkpoint.json"),
        trace_path=str(trace_file(workload, seed)),
    )
    checks["traced signature matches live report"] = (
        traced["signature"] == report["signature"]
    )
    if not all(checks.values()):
        verdict["failed"] = live.sent
    values = traced_values(verdict, traced, generated["layers"])
    feed_s, checkpoint_s = values["service.feed_s"], values["stream.checkpoint_s"]
    values["stream.checkpoint_share"] = checkpoint_s / (feed_s + checkpoint_s)
    values["service.lag_max_lines"] = live.lag_max_lines
    values["service.shed_lines"] = live.shed
    values["gen.late_p99_ms"] = percentile(live.late_ms, 0.99)
    values["trace.overhead_s"] = (
        traced["elapsed_s"] - checkpoint_s - reference["elapsed_s"]
    )
    return verdict, values


# ---------------------------------------------------------------------- main
def trace_file(workload: Workload, seed: int) -> Path:
    return OUT / "traces" / f"{workload.name}-{seed}.json"


def traced_values(
    verdict: Dict[str, Any], traced: Dict[str, Any], setup: Dict[str, float]
) -> Dict[str, Any]:
    """Per-layer values of a traced run: ``<layer>_s`` is the total span
    time of the layer (0 for a layer the workload does not run), the
    counts come from the traced run."""
    layers = {name: tuple(row) for name, row in traced["layers"].items()}
    layers.update({name: (1, spent, spent) for name, spent in setup.items()})
    verdict["table"] = (
        render_layers({k: v for k, v in layers.items() if k not in setup},
                      traced["elapsed_s"])
        + "\nset-up:\n"
        + render_layers({k: layers[k] for k in setup})
    )
    values: Dict[str, Any] = {
        name: layers[name[:-2]][1] if name[:-2] in layers else 0.0
        for name, unit in PER_LAYER.items()
        if unit == "s"
    }
    values.update(traced["counts"])
    return values


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    run_dir = OUT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    calib = calibrate()
    try:
        runner = run_batch if workload.batch else run_tenant
        verdict, values = runner(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    verdict["host.calib_s"] = calib
    if trace:
        values["host.calib_s"] = calib
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in names.items()
    }
    return verdict, metrics


def render(workload: Workload, seed: int, verdict: Dict[str, Any], metrics) -> str:
    counts = verdict["counts"]
    rows = [
        f"== {workload.name} seed={seed}: {counts['lines']:,} lines, "
        f"{counts['lsps']:,} LSPs, {counts['routers']:,} routers; "
        f"host.calib_s={verdict['host.calib_s']:.4f}"
    ]
    for name, doc in metrics.items():
        rows.append(f"  {name:<32} {doc['value']:>14.4f} {doc['unit']}")
    if "samples" in verdict:
        walls = ", ".join(f"{wall:.3f}" for wall in verdict["samples"])
        rows.append(f"  analyses (s, one fresh process each): {walls}")
    ratio = verdict["failed"] / verdict["attempted"]
    rows.append(f"  {'failed_ratio':<32} {ratio:>14.4f} ratio")
    for label, ok in verdict["checks"].items():
        rows.append(f"  check: {label}: {'ok' if ok else 'MISMATCH'}")
    if "table" in verdict:
        rows.append(verdict["table"])
    return "\n".join(rows)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"host": host_record()}))
    correct, attempted, failed = True, 0, 0
    combined: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        verdict, metrics = run_workload(workload, seed, args.seconds, bool(args.trace))
        print(render(workload, seed, verdict, metrics), flush=True)
        correct = correct and all(verdict["checks"].values())
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({prefix + key: doc for key, doc in metrics.items()})
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": combined,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
