"""The tenant-replay live run: ``repro serve`` in its own process.

The benchmark starts the service through its CLI entry point with one
tenant, feeds the profile's syslog lines over one TCP connection in an
open loop at a fixed rate, and polls ``/status`` over HTTP.  A line's
latency runs from when it was *due* to the first status sample whose
worker ``lines_seen`` covers it, so a stall also charges every line that
queued behind it.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: The one tenant the benchmark configures.
TENANT = "bench"
#: Status poll period.  The worker heartbeats every 0.2 s by default, so
#: a faster poll only resolves heartbeats more precisely.
POLL_SECONDS = 0.02
#: Longest the worker may take to catch up once the feed has ended.
CATCH_UP_CEILING = 120.0
#: Longest ``repro serve`` may take to start or to drain.
PROCESS_CEILING = 60.0


def encode_frame(line: str) -> bytes:
    """An RFC 6587 octet-counted frame (what ``repro serve`` decodes)."""
    payload = line.encode("utf-8")
    return b"%d " % len(payload) + payload


def _proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for row in Path(f"/proc/{pid}/status").read_text().splitlines():
        if row.startswith("VmHWM:"):
            return int(row.split()[1]) / 1024.0
    return 0.0


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class Service:
    """One running ``repro serve`` with a single tenant."""

    process: subprocess.Popen
    state_dir: Path
    tcp_port: int
    status_url: str
    worker_pid: int

    def status(self) -> Dict:
        with urllib.request.urlopen(self.status_url, timeout=5.0) as reply:
            return json.loads(reply.read())["tenants"][TENANT]

    def stop(self) -> int:
        """SIGINT, the drain ``repro serve`` performs on Ctrl-C."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            return self.process.wait(timeout=PROCESS_CEILING)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain in time") from None

    def kill(self) -> None:
        """SIGKILL the whole process group: the supervisor and its worker
        (``repro serve`` runs in a session of its own)."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()

    def report(self) -> Dict:
        return json.loads((self.state_dir / TENANT / "report.json").read_text())

    @property
    def journal(self) -> Path:
        return self.state_dir / TENANT / "journal.log"


def start_service(
    src: Path, root: Path, profile: Path, state_dir: Path
) -> Tuple[Service, float]:
    """Start ``repro serve``; returns it and the seconds until the
    tenant's first worker heartbeat."""
    config = root / "service.json"
    config.write_text(
        json.dumps(
            {
                "state_dir": str(state_dir),
                "status_port": 0,
                "tenants": [{"name": TENANT, "profile_dir": str(profile)}],
            }
        )
    )
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = str(src)
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    output: List[str] = []

    def read() -> None:
        for row in process.stdout:
            output.append(row)

    threading.Thread(target=read, daemon=True).start()
    heartbeat = state_dir / TENANT / "heartbeat.json"
    deadline = started + PROCESS_CEILING
    tcp_port = status_url = None
    while time.perf_counter() < deadline:
        for row in list(output):
            if row.startswith(f"serve: tenant {TENANT}: tcp="):
                tcp_port = int(row.split("tcp=")[1].split()[0])
            elif row.startswith("serve: status endpoint "):
                status_url = row.split()[-1]
        if tcp_port and status_url and heartbeat.exists():
            break
        if process.poll() is not None:
            break
        time.sleep(0.005)
    ready = time.perf_counter() - started
    try:
        worker_pid = int(json.loads(heartbeat.read_text())["pid"])
    except (OSError, ValueError, KeyError):
        worker_pid = -1
    service = Service(process, state_dir, tcp_port or 0, status_url or "", worker_pid)
    if worker_pid < 0 or not tcp_port or not status_url:
        service.kill()
        raise RuntimeError("repro serve did not come up:\n" + "".join(output))
    return service, ready


@dataclass
class LiveResult:
    sent: int
    latencies_ms: List[float]
    late_ms: List[float]
    caught_up_s: float
    cpu_s: float
    peak_rss_mb: float
    lag_max_lines: int
    shed: int


def feed(service: Service, lines: List[str], rate: float) -> LiveResult:
    """Open-loop feed at ``rate`` lines/s while sampling ``/status``."""
    samples: List[Tuple[float, int]] = []
    lags: List[int] = []
    stop = threading.Event()
    errors: List[BaseException] = []

    def poll() -> None:
        try:
            while not stop.is_set():
                doc = service.status()
                samples.append((time.perf_counter(), doc["worker"]["lines_seen"]))
                lags.append(doc["lag_lines"])
                stop.wait(POLL_SECONDS)
        except (OSError, ValueError, KeyError) as error:
            errors.append(error)

    pids = [service.process.pid, service.worker_pid]
    cpu0 = sum(_proc_cpu_s(pid) for pid in pids)
    frames = [encode_frame(line) for line in lines]
    late: List[float] = []
    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    with socket.create_connection(("127.0.0.1", service.tcp_port), timeout=30.0) as sock:
        start = time.perf_counter()
        sent = 0
        while sent < len(frames):
            now = time.perf_counter()
            due = min(len(frames), int((now - start) * rate) + 1)
            if due > sent:
                sock.sendall(b"".join(frames[sent:due]))
                late.extend(
                    (now - start - i / rate) * 1000.0 for i in range(sent, due)
                )
                sent = due
            time.sleep(max(0.0, start + sent / rate - time.perf_counter()))
        # Wait for the worker to see every line the service kept.
        deadline = time.perf_counter() + CATCH_UP_CEILING
        caught_up = None
        while time.perf_counter() < deadline and not errors:
            doc = service.status()
            if (
                doc["received"] == sent
                and doc["buffered"] == 0
                and doc["worker"]["lines_seen"] >= doc["journal_lines"]
            ):
                caught_up = time.perf_counter()
                break
            time.sleep(POLL_SECONDS)
    cpu = sum(_proc_cpu_s(pid) for pid in pids) - cpu0
    rss = sum(_proc_hwm_mb(pid) for pid in pids)
    shed = service.status()["shed"]
    stop.set()
    poller.join(timeout=10.0)
    if errors:
        raise RuntimeError(f"status polling failed: {errors[0]!r}")
    if caught_up is None:
        raise RuntimeError("the tenant worker did not catch up with the feed")

    counts = [count for _, count in samples]
    latencies = []
    for index in range(sent):
        due = start + index / rate
        position = bisect.bisect_left(counts, index + 1)
        if position < len(samples):
            latencies.append((samples[position][0] - due) * 1000.0)
    return LiveResult(
        sent=sent,
        latencies_ms=latencies,
        late_ms=late,
        caught_up_s=caught_up - start,
        cpu_s=cpu,
        peak_rss_mb=rss,
        lag_max_lines=max(lags) if lags else 0,
        shed=shed,
    )
