"""The benchmark's own checks (not part of the repository test suite).

Run with::

    python3 -m pytest -q perfbench/test_perfbench.py

The traced runs restate ``run_analysis`` and ``run_worker`` call by
call, so these tests pin what makes their numbers usable: every count a
traced run reports is a pure function of the seed (identical across
fresh processes with different hash seeds), and the traced results equal
the untraced and reference results.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "paper-campaign": replace(WORKLOADS["paper-campaign"], days=4.0),
    "fleet-chatter": replace(
        WORKLOADS["fleet-chatter"],
        days=1.0,
        fleet={**WORKLOADS["fleet-chatter"].fleet, "pods": 4},
    ),
    "tenant-replay": replace(WORKLOADS["tenant-replay"], days=12.0),
}
SEED = 3


def _child(task: str, hash_seed: str, **arguments):
    previous = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = hash_seed
    try:
        return run.child(task, **arguments)
    finally:
        if previous is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = previous


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_provenance_names_every_workload_and_layer_metric() -> None:
    provenance = json.loads((HERE / "provenance.json").read_text())
    for name, workload in WORKLOADS.items():
        entry = provenance["workloads"][name]
        assert (entry["default_seed"], entry["heldout_seed"]) == (
            workload.default_seed,
            workload.heldout_seed,
        )
    assert set(provenance["per_layer"]) == set(run.PER_LAYER)
    for entry in provenance["per_layer"].values():
        assert set(entry["moves"]) <= set(run.END_TO_END) | {"none"}
        assert set(entry["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", ["paper-campaign", "fleet-chatter"])
def test_batch_trace_counts_repeat_exactly(name: str, tmp_path: Path) -> None:
    workload = asdict(SMALL[name])
    corpus = str(tmp_path / "corpus")
    run.child("setup", workload=workload, seed=SEED, out=corpus)
    traces = [
        _child(
            "traced",
            hash_seed,
            workload=workload,
            seed=SEED,
            corpus=corpus,
            trace_path=str(tmp_path / f"trace-{hash_seed}.json"),
        )
        for hash_seed in ("1", "2")
    ]
    assert traces[0]["counts"] == traces[1]["counts"]
    assert traces[0]["counts"]["columnar.entries"] > 0
    analyzed = run.child("analyze", workload=workload, seed=SEED, corpus=corpus)
    reference = run.child("reference", workload=workload, seed=SEED, corpus=corpus)
    assert {t["digest"] for t in traces} == {analyzed["digest"], reference["digest"]}
    events = json.loads((tmp_path / "trace-1.json").read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"analysis", "isis.decode", "columnar.parse"}


def test_tenant_trace_counts_repeat_exactly(tmp_path: Path) -> None:
    profile = tmp_path / "profile"
    run.child(
        "setup", workload=asdict(SMALL["tenant-replay"]), seed=SEED, out=str(profile)
    )
    journal = str(profile / "syslog.log")  # a journal holds exactly these lines
    traces = [
        _child(
            "tenant_traced",
            hash_seed,
            profile=str(profile),
            journal=journal,
            checkpoint=str(tmp_path / f"checkpoint-{hash_seed}.json"),
            trace_path=str(tmp_path / f"trace-{hash_seed}.json"),
        )
        for hash_seed in ("1", "2")
    ]
    assert traces[0]["counts"] == traces[1]["counts"]
    assert traces[0]["counts"]["service.lines"] > 0
    assert traces[0]["counts"]["stream.checkpoints"] > 0
    reference = run.child("tenant_reference", profile=str(profile), journal=journal)
    assert {t["signature"] for t in traces} == {reference["signature"]}
