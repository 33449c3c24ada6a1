"""Tasks that run in a fresh interpreter, one per timed measurement.

``python3 perfbench/child.py TASK JSON_ARGS`` runs one task and prints
its result as one JSON line.  The benchmark starts a new process for each
set-up and each reference, and ``analyze`` forks a fresh process for each
analysis, so no measurement inherits a warm heap, caches or allocator
drift from the one before.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

from live import TENANT
from spans import Tracer
from workloads import Workload, fleet_spec, network_for, run_campaign


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(result) -> str:
    from repro.faults.chaos import analysis_signature

    return hashlib.sha256(analysis_signature(result).encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- set-up
def _cut(dataset, limit: int):
    """The campaign as archived up to its ``limit``-th LSP.

    A campaign's volume follows its seed's per-link failure rates, which
    are lognormal, so whole campaigns differ by up to a third in size from
    seed to seed.  Ending the archive at a fixed LSP count (and keeping
    the syslog lines generated before that moment) makes every seed the
    same amount of work.
    """
    import dataclasses

    from repro.syslog.collector import SyslogCollector

    if len(dataset.lsp_records) <= limit:
        return dataset
    end = dataset.lsp_records[limit][0]
    lines = [line for line in dataset.syslog_text.split("\n") if line.strip()]
    entries = SyslogCollector.parse_log(dataset.syslog_text)
    kept = [
        line for line, entry in zip(lines, entries) if entry.generated_time < end
    ]
    return dataclasses.replace(
        dataset,
        lsp_records=dataset.lsp_records[:limit],
        syslog_text="".join(line + "\n" for line in kept),
        horizon_end=end,
        summary=None,
    )


def setup(workload: Dict[str, Any], seed: int, out: str) -> Dict[str, Any]:
    """Generate the corpus from the seed and write it to ``out``."""
    spec = Workload(**workload)
    layers: Dict[str, float] = {}
    started = time.perf_counter()
    if spec.kind == "fleet":
        from repro.fleet import write_corpus

        counters = write_corpus(fleet_spec(spec, seed), out, dataset=True)
        layers["fleet.generate"] = time.perf_counter() - started
        counts = {
            "lines": counters.syslog_lines,
            "lsps": counters.lsp_records,
            "routers": counters.routers,
        }
    else:
        dataset = run_campaign(spec, seed)
        layers["simulation.generate"] = time.perf_counter() - started
        if spec.lsp_limit:
            dataset = _cut(dataset, spec.lsp_limit)
        saving = time.perf_counter()
        dataset.save(out)
        layers["dataset.save"] = time.perf_counter() - saving
        counts = {
            "lines": dataset.syslog_text.count("\n"),
            "lsps": len(dataset.lsp_records),
            "routers": len(dataset.configs),
        }
    return {
        "setup_s": time.perf_counter() - started,
        "layers": layers,
        "counts": counts,
    }


# ------------------------------------------------------------------ batch
def _forked(task) -> Dict[str, Any]:
    """Run ``task()`` in a forked child and return its JSON result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(task(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"forked analysis failed (wait status {status})")
    return json.loads(data)


def analyze(
    workload: Dict[str, Any],
    seed: int,
    corpus: str,
    seconds: float = 0.0,
    minimum: int = 1,
) -> Dict[str, Any]:
    """``repro analyze`` as an operator runs it: load, then analyse.

    This process imports the program and builds the topology once; each
    analysis then runs in a fresh process forked from it, so it times the
    load and the analysis on the same clean heap every time.  One warm-up
    analysis (it fills the page cache) is discarded, then analyses repeat
    for ``seconds``, at least ``minimum`` of them.
    """
    from repro import run_analysis
    from repro.simulation.dataset import Dataset

    network = network_for(Workload(**workload), seed)
    gc.collect()
    gc.freeze()  # the children's collections skip the shared heap

    def once() -> Dict[str, Any]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = run_analysis(Dataset.load(corpus, network), ingest="columnar", jobs=1)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return {
            "analyze_s": wall,
            "analyze_cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(),
            "digest": _digest(result),
        }

    _forked(once)
    samples: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(samples) < minimum or time.perf_counter() - started < seconds:
        samples.append(_forked(once))
    return {"samples": samples, "digest": samples[0]["digest"]}


def reference(workload: Dict[str, Any], seed: int, corpus: str) -> Dict[str, Any]:
    """The scalar reference pipeline's digest of the same dataset."""
    from repro import run_analysis
    from repro.simulation.dataset import Dataset

    network = network_for(Workload(**workload), seed)
    result = run_analysis(Dataset.load(corpus, network), ingest="scalar", jobs=1)
    return {"digest": _digest(result)}


def traced(
    workload: Dict[str, Any], seed: int, corpus: str, trace_path: str
) -> Dict[str, Any]:
    """``run_analysis(ingest="columnar")`` restated as its public calls,
    each wrapped in a span.  Its digest must equal the untraced run's."""
    from repro.columnar import parse_log_columnar
    from repro.core.events import (
        SOURCE_ISIS_IP,
        SOURCE_ISIS_IS,
        SOURCE_SYSLOG,
        message_sort_key,
    )
    from repro.core.extract_isis import IsisExtraction, classify_changes
    from repro.core.extract_syslog import SyslogExtraction, classify_entries
    from repro.core.flapping import detect_flap_episodes, flap_intervals
    from repro.core.links import LinkResolver
    from repro.core.matching import count_matching_reporters, match_failures
    from repro.core.pipeline import AnalysisOptions, AnalysisResult
    from repro.core.reconstruct import merge_messages, reconstruct_channel
    from repro.core.sanitize import sanitize_failures
    from repro.isis.listener import IsisListener
    from repro.isis.lsp import LinkStatePacket
    from repro.simulation.dataset import Dataset

    network = network_for(Workload(**workload), seed)
    options = AnalysisOptions()
    tracer = Tracer(f"{workload['name']}-{seed}-{os.getpid()}")
    span, add, clock = tracer.span, tracer.add, time.perf_counter
    merge_count = 0

    def merge(messages, window, source):
        nonlocal merge_count
        with span("engine.merge"):
            transitions = merge_messages(messages, window, source)
        merge_count += len(transitions)
        return transitions

    with span("analysis"):
        with span("dataset.load"):
            dataset = Dataset.load(corpus, network)
        resolver = LinkResolver(dataset.inventory)
        start, end = dataset.analysis_start, dataset.horizon_end

        with span("columnar.parse"):
            entries = parse_log_columnar(dataset.syslog_text)

        syslog = SyslogExtraction()
        with span("syslog.extract"):
            with span("syslog.classify"):
                (
                    syslog.isis_messages,
                    syslog.physical_messages,
                    syslog.unparsed_count,
                    syslog.unresolved_count,
                ) = classify_entries(entries, resolver)
            syslog.isis_messages.sort(key=message_sort_key)
            syslog.physical_messages.sort(key=message_sort_key)
            window = options.syslog.merge_window
            syslog.isis_transitions = merge(syslog.isis_messages, window, SOURCE_SYSLOG)
            syslog.physical_transitions = merge(
                syslog.physical_messages, window, SOURCE_SYSLOG
            )
            single = {record.name for record in resolver.single_links()}
            with span("engine.timeline"):
                syslog.timelines, syslog.failures = reconstruct_channel(
                    [t for t in syslog.isis_transitions if t.link in single],
                    start,
                    end,
                    strategy=options.syslog.strategy,
                    links=sorted(single),
                    source=SOURCE_SYSLOG,
                )

        listener = IsisListener()
        accepted = changed = 0
        with span("isis.replay"):
            for when, raw in dataset.lsp_records:
                t0 = clock()
                lsp = LinkStatePacket.unpack(raw)
                t1 = clock()
                rejected = listener.rejected_count
                emitted = listener.observe(when, lsp)
                t2 = clock()
                add("isis.decode", t0, t1)
                add("isis.listener", t1, t2)
                if listener.rejected_count == rejected:
                    accepted += 1
                    changed += bool(emitted)

        isis = IsisExtraction(rejected_lsps=listener.rejected_count)
        with span("isis.extract"):
            with span("isis.classify"):
                (
                    isis.is_messages,
                    isis.ip_messages,
                    isis.multilink_skipped,
                    isis.unresolved_count,
                ) = classify_changes(listener.changes, resolver)
            isis.is_messages.sort(key=message_sort_key)
            isis.ip_messages.sort(key=message_sort_key)
            window = options.isis.merge_window
            isis.is_transitions = merge(isis.is_messages, window, SOURCE_ISIS_IS)
            isis.ip_transitions = merge(isis.ip_messages, window, SOURCE_ISIS_IP)
            with span("engine.timeline"):
                isis.timelines, isis.failures = reconstruct_channel(
                    isis.is_transitions,
                    start,
                    end,
                    strategy=options.isis.strategy,
                    links=[record.name for record in resolver.single_links()],
                    source=SOURCE_ISIS_IS,
                )

        with span("engine.sanitize"):
            syslog_sanitized = sanitize_failures(
                syslog.failures, dataset.listener_outages, dataset.tickets,
                options.sanitization,
            )
            isis_sanitized = sanitize_failures(
                isis.failures, dataset.listener_outages, tickets=None,
                config=options.sanitization,
            )
        with span("engine.match"):
            failure_match = match_failures(
                syslog_sanitized.kept, isis_sanitized.kept, options.matching
            )
        with span("engine.coverage"):
            coverage = count_matching_reporters(
                isis.is_transitions, syslog.isis_messages, options.matching
            )
        with span("engine.flaps"):
            episodes = detect_flap_episodes(
                isis_sanitized.kept, options.flap_gap_threshold
            )
            intervals = flap_intervals(episodes, horizon_start=start)

    result = AnalysisResult(
        resolver=resolver,
        syslog=syslog,
        isis=isis,
        syslog_sanitized=syslog_sanitized,
        isis_sanitized=isis_sanitized,
        failure_match=failure_match,
        coverage=coverage,
        flap_episodes=episodes,
        flap_intervals=intervals,
        horizon_start=start,
        horizon_end=end,
        options=options,
    )
    tracer.write_chrome(Path(trace_path))
    link_messages = len(syslog.isis_messages) + len(syslog.physical_messages)
    counts = {
        "columnar.entries": len(entries),
        "syslog.link_messages": link_messages,
        "syslog.useful_ratio": link_messages / max(1, len(entries)),
        "isis.lsps_rejected": listener.rejected_count,
        "isis.changes": len(listener.changes),
        "isis.change_ratio": changed / max(1, accepted),
        "engine.transitions": merge_count,
        "engine.failures": len(syslog.failures) + len(isis.failures),
        "engine.kept": len(syslog_sanitized.kept) + len(isis_sanitized.kept),
        "engine.matched_pairs": len(failure_match.pairs),
        "engine.flap_episodes": len(episodes),
    }
    return {
        "elapsed_s": tracer.elapsed("analysis"),
        "layers": tracer.layers(),
        "counts": counts,
        "digest": _digest(result),
    }


# ----------------------------------------------------------------- tenant
def _journal_lines(journal: str) -> List[str]:
    """The journal's complete lines, decoded as the worker's tailer does."""
    data = Path(journal).read_bytes()
    return [
        raw.decode("utf-8", errors="replace") for raw in data.split(b"\n")[:-1]
    ]


def tenant_reference(profile: str, journal: str) -> Dict[str, Any]:
    """``stream_signature(replay_lines(...))`` over the journalled lines."""
    from repro.faults.chaos import stream_signature
    from repro.service import load_tenant_context, replay_lines

    context = load_tenant_context(TENANT, profile)
    lines = _journal_lines(journal)
    started = time.perf_counter()
    result, _ = replay_lines(context, lines)
    return {
        "elapsed_s": time.perf_counter() - started,
        "lines": len(lines),
        "signature": stream_signature(result),
    }


def tenant_traced(
    profile: str, journal: str, checkpoint: str, trace_path: str
) -> Dict[str, Any]:
    """The worker's loop (``run_worker``) in-process over the journal:
    ``TenantPipeline.feed_line`` per line and ``save_checkpoint`` at the
    tenant's default cadence, each wrapped in a span."""
    from repro.faults.chaos import stream_signature
    from repro.service import TenantConfig, TenantPipeline, load_tenant_context
    from repro.stream.checkpoint import save_checkpoint

    every = TenantConfig(name=TENANT, profile_dir=profile).checkpoint_every
    context = load_tenant_context(TENANT, profile)
    lines = _journal_lines(journal)
    tracer = Tracer(f"tenant-{os.getpid()}")
    span, add, clock = tracer.span, tracer.add, time.perf_counter
    sizes: List[int] = []
    with span("tenant.replay"):
        pipeline = TenantPipeline(context)
        last = pipeline.engine.events_consumed
        for line in lines:
            t0 = clock()
            pipeline.feed_line(line)
            add("service.feed", t0, clock())
            consumed = pipeline.engine.events_consumed
            if not pipeline.replaying and consumed - last >= every:
                with span("stream.checkpoint"):
                    save_checkpoint(checkpoint, pipeline.engine)
                sizes.append(os.path.getsize(checkpoint))
                last = consumed
        with span("service.finish"):
            result = pipeline.finish()
    tracer.write_chrome(Path(trace_path))
    counters = result.counters
    return {
        "elapsed_s": tracer.elapsed("tenant.replay"),
        "layers": tracer.layers(),
        "counts": {
            "service.lines": pipeline.lines_seen,
            "stream.checkpoints": len(sizes),
            "stream.checkpoint_bytes_first": sizes[0] if sizes else 0,
            "stream.checkpoint_bytes_last": sizes[-1] if sizes else 0,
            "engine.transitions": sum(
                v for k, v in counters.items() if k.endswith("-transitions")
            ),
            "engine.failures": len(result.syslog_failures_raw)
            + len(result.isis_failures_raw),
            "engine.kept": len(result.syslog_sanitized.kept)
            + len(result.isis_sanitized.kept),
            "engine.matched_pairs": len(result.failure_match.pairs),
            "engine.flap_episodes": len(result.flap_episodes),
        },
        "signature": stream_signature(result),
    }


TASKS = {
    "setup": setup,
    "analyze": analyze,
    "reference": reference,
    "traced": traced,
    "tenant_reference": tenant_reference,
    "tenant_traced": tenant_traced,
}


if __name__ == "__main__":
    task, arguments = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(TASKS[task](**arguments)))
