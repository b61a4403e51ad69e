"""service-cold: the HTTP allocation service driven open loop.

Starts ``repro serve --journal DIR --cache-dir DIR`` (inline worker, other
flags at their defaults) and sends every request of
``suite.service_requests()["cold"]`` once, in an order drawn from the
workload seed, so every request misses the cache.

A run has a fixed-rate phase well below capacity (the latency samples),
in two halves.  The traced run also measures capacity on its untraced
server: the search bisects a fixed geometric ladder of rates in six
rungs, whatever the host's speed; a probe passes when every response is
verified, p90 latency meets :data:`LIMIT_MS` and the last quarter's
median does too (no growing backlog), and a failed probe is retried
once.  ``service.slo_rps`` is the highest rung that passed, and a run
whose search did not see both a pass and a failure is marked incorrect.
The work of a run is fixed (about a minute on a 2-CPU host), so
``--seconds`` is not consulted.
Arrivals are Poisson, with gaps from one fixed stream scaled to the rate,
so every run and probe sees the same bursts.  The load comes from one
process with at most two (and at most ``nproc``) threads, each with one
connection at a time; latency runs from each request's due time, so a
late generator shows as latency and as ``loadgen.lag_ms_p99``.

Every response must carry an artifact byte-identical, after canonical
re-encoding, to a direct ``build_artifact`` of the same request, and that
reference must pass the strict verifier and the value interpreter.
References depend only on the request and the program's source, so they
are kept under ``.perfbench/`` in the checkout, keyed by a digest of
``src/``.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import common
import spans
import suite

CACHE_DIR = os.path.join(common.ROOT, ".perfbench")

RATE = 40.0            # req/s of the fixed-rate phase
LIMIT_MS = 100.0       # p90 latency limit of a capacity probe
LADDER_BASE = RATE     # lowest rung, req/s: the phase runs below capacity
LADDER_RATIO = 1.05
LADDER_RUNGS = 63      # top rung 826 req/s; bisection takes 6 rungs
PROBE_REQUESTS = 100   # p90 of a probe has 10 samples beyond it
SPARE_SETUPS = (2, 1)   # timed starts of idle servers before and after the phase
BASELINE_REQUESTS = 400

GENERATION = {
    **suite.GENERATION,
    "rate": RATE,
    "limit_ms": LIMIT_MS,
    "ladder": {"base": LADDER_BASE, "ratio": LADDER_RATIO,
               "rungs": LADDER_RUNGS,
               "probe_requests": PROBE_REQUESTS},
}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process with its own journal and disk cache."""

    def __init__(self, workdir: str, spans_path: str | None = None):
        os.makedirs(workdir)
        serve = [
            "serve", "--port", "0",
            "--cache-dir", os.path.join(workdir, "cache"),
            "--journal", os.path.join(workdir, "journal"),
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = os.path.join(common.HERE, "launcher.py")
            command = [sys.executable, launcher, "--spans", spans_path, *serve]
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=common.python_env(), cwd=common.ROOT,
        )
        try:
            self.port = self._await_port()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as fh:
                found = re.search(r"listening on http://[^:]+:(\d+)", fh.read())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        with open(self.log_path, encoding="utf-8") as fh:
            raise RuntimeError(f"server did not start:\n{fh.read()[-2000:]}")

    def _await_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz").get("ok"):
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL after 30 s."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------
@dataclass
class Record:
    due: float
    sent: float
    done: float
    status: int | None
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due


def schedule(rate: float, count: int) -> list[float]:
    """Poisson arrival offsets (s) at *rate*, the same for every seed.

    The gaps come from one fixed unit-rate stream scaled by the rate, so
    every run and every probe sees the same burst pattern; the workload
    seed decides which request arrives when.
    """
    rng = random.Random("arrivals")
    now, out = 0.0, []
    for _ in range(count):
        now += rng.expovariate(1.0) / rate
        out.append(now)
    return out


def drive(port: int, items: list[suite.Item], rate: float) -> list[Record]:
    """Send *items* open loop at *rate*, starting now."""
    bodies = [request_body(i) for i in items]
    offsets = schedule(rate, len(bodies))
    connections = max(1, min(2, os.cpu_count() or 1))
    records: list[Record | None] = [None] * len(bodies)
    counter = itertools.count()
    origin = time.perf_counter() + 0.02
    headers = {"Content-Type": "application/json", "Connection": "close"}

    def worker():
        while (i := next(counter)) < len(bodies):
            due = origin + offsets[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            # One connection per request, as the program's own client
            # does: the handler writes headers and body separately, so a
            # keep-alive client waits out a delayed ACK on every response.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                conn.request("POST", "/v1/allocate", bodies[i], headers)
                response = conn.getresponse()
                body, status = response.read(), response.status
            except (OSError, http.client.HTTPException) as exc:
                body, status = repr(exc).encode(), None
            finally:
                conn.close()
            records[i] = Record(due, sent, time.perf_counter(), status, body)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records  # type: ignore[return-value]


def request_body(item: suite.Item) -> bytes:
    return json.dumps(
        {"ir": item.ir, "file": item.file, "method": item.method}
    ).encode("utf-8")


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def key_of(item: suite.Item) -> str:
    from repro.service.artifact import cache_key

    return cache_key(item.ir, item.file, item.method)


def references(items: list[suite.Item]) -> tuple[dict, int]:
    """Reference outcome per request key, and the semantic checks run.

    Each entry holds the sha256 of the reference artifact bytes, whether
    it passed the strict verifier, the interpreter's verdict and the
    quality counts of the reference.
    """
    from repro.resilience.verifier import AllocationVerifier
    from repro.service.artifact import artifact_bytes, build_artifact

    path = os.path.join(CACHE_DIR, f"refs-{common.src_digest()[:20]}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    verdicts = suite.Verdicts()
    verifier = AllocationVerifier("strict")
    missing = [i for i in items if key_of(i) not in refs]
    for item in missing:
        key = key_of(item)
        artifact = build_artifact(item.ir, item.file, item.method)
        data = artifact_bytes(artifact)
        refs[key] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "structural": verifier.verify_bytes(data, expected_key=key).ok,
            "verdict": verdicts.of(item, artifact, data),
            "label": suite.label(item),
            "quality": suite.quality_of(item, artifact),
        }
    verdicts.remember()
    if missing:
        os.makedirs(CACHE_DIR, exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        os.replace(path + ".tmp", path)
    return refs, len(verdicts.fresh)


@dataclass
class Checked:
    """One response against its reference."""

    ok: bool                # HTTP 200 and bytes identical to the reference
    success: bool           # ...and the reference is verified correct
    payload: dict | None


def check(record: Record, item: suite.Item, refs: dict) -> Checked:
    from repro.service.artifact import artifact_bytes

    if record.status != 200:
        return Checked(False, False, None)
    payload = json.loads(record.body)
    data = artifact_bytes(payload["artifact"])
    ref = refs[key_of(item)]
    ok = hashlib.sha256(data).hexdigest() == ref["sha256"]
    success = ok and ref["structural"] and ref["verdict"] == suite.EQUIVALENT
    return Checked(ok, success, payload)


def check_all(records: list[Record], items: list[suite.Item], refs: dict) -> list[Checked]:
    return [check(r, i, refs) for r, i in zip(records, items)]


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class Load:
    """Request sources of one run: the fixed-rate phase and the ladder."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        requests = suite.service_requests()
        self.phase = list(requests["cold"])
        rng.shuffle(self.phase)
        self.strata = _strata(requests["ladder"], PROBE_REQUESTS, rng)
        self.quality_items = requests["cold"]
        self.ref_items = requests["cold"] + requests["ladder"]

    def probe_items(self) -> list[suite.Item]:
        """The next capacity probe's requests.

        Each probe takes one unused request from each size stratum, so
        every probe carries the same mix of small and large functions.
        """
        return [stratum.pop() for stratum in self.strata]


def _strata(items: list[suite.Item], count: int, rng: random.Random) -> list[list]:
    """*items* cut by size into *count* equal strata, each shuffled."""
    ordered = sorted(items, key=lambda i: (i.instructions, suite.label(i)))
    size = len(ordered) // count
    strata = [ordered[k * size:(k + 1) * size] for k in range(count)]
    for stratum in strata:
        rng.shuffle(stratum)
    return strata


def _passes(records: list[Record], checked: list[Checked]) -> bool:
    """Every response verified, p90 within the limit and no growing
    backlog: the last quarter's median latency is within the limit too."""
    if not all(c.ok for c in checked):
        return False
    latency_ms = [r.latency_s * 1000.0 for r in records]
    last = latency_ms[len(latency_ms) * 3 // 4:]
    return (common.percentile(latency_ms, 90) <= LIMIT_MS
            and common.median(last) <= LIMIT_MS)


def rung_rate(index: int) -> float:
    return LADDER_BASE * LADDER_RATIO ** index


def ladder_search(server: Server, load: Load, refs: dict) -> tuple[float, bool, list]:
    """The capacity search: a bisection of the ladder's rungs.

    The rung below the ladder counts as passed and the one above it as
    failed, so the search always tries log2(LADDER_RUNGS + 1) rungs; a
    failed probe is retried once, so one host stall does not decide a
    rung.  The search has bracketed the capacity when its own probes saw
    a pass and a failure.  Returns the rate of the highest rung that
    passed (0 if none), whether the search bracketed, and the checked
    responses.
    """
    low, high = -1, LADDER_RUNGS
    results: list[Checked] = []

    def probe(rate: float) -> bool:
        items = load.probe_items()
        records = drive(server.port, items, rate)
        checked = check_all(records, items, refs)
        results.extend(checked)
        return _passes(records, checked)

    while high - low > 1:
        index = (low + high) // 2
        if probe(rung_rate(index)) or probe(rung_rate(index)):
            low = index
        else:
            high = index
    bracketed = 0 <= low and high < LADDER_RUNGS
    return (rung_rate(low) if low >= 0 else 0.0), bracketed, results


def run(seed: int, trace: bool) -> dict:
    load = Load(seed)
    refs, semantic_runs = references(load.ref_items)
    workdir = os.path.join(CACHE_DIR, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            return _run_traced(workdir, load, refs, semantic_runs)
        return _run(workdir, load, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: str, load: Load, refs: dict) -> dict:
    ready = []

    def start() -> Server:
        server = Server(os.path.join(workdir, f"server{len(ready)}"))
        ready.append(server.ready_s)
        return server

    for _ in range(SPARE_SETUPS[0]):
        start().stop()
    # The fixed-rate phase runs as two halves of 1000 requests, each on a
    # fresh server.  One server slows as its state grows (over one
    # 2000-request phase, the second half was the slower in 7 of 8
    # trials), so fresh servers make the halves alike.  Host speed drops
    # by up to half for stretches of seconds, so the p50 and p99 are
    # those of the better half: one slow stretch does not decide the run.
    halves = (load.phase[0::2], load.phase[1::2])
    phases, counters, rss = [], {}, []
    for half in halves:
        server = start()
        try:
            phases.append(drive(server.port, half, RATE))
            stats = server.get("/v1/stats")["counters"]
            for name in ("shed", "retried"):
                counters[name] = counters.get(name, 0) + stats.get(name, 0)
            rss.append(common.peak_rss_mb(server.process.pid))
        finally:
            server.stop()
    for _ in range(SPARE_SETUPS[1]):
        start().stop()

    records = phases[0] + phases[1]
    phase = halves[0] + halves[1]
    checked = check_all(records, phase, refs)
    metrics = common.Metrics()
    metrics.add("setup_s", common.median(ready), "s", len(ready))
    p50_s = min(common.median([r.latency_s for r in h]) for h in phases)
    metrics.add("latency_p50_ms", 1000.0 * p50_s, "ms", len(records))
    metrics.add(
        "latency_p99_ms",
        min(common.tail_percentile([1000.0 * r.latency_s for r in h], 99)
            for h in phases),
        "ms", len(records),
    )
    # Mean request size over median latency: the queueing tail would
    # swamp a sum of latencies.
    mean_instructions = sum(i.instructions for i in phase) / len(phase)
    metrics.add("instrs_per_s", mean_instructions / p50_s, "instr/s", len(records))
    metrics.add("success_rate", sum(c.success for c in checked) / len(checked),
                "fraction", len(checked))
    metrics.add("peak_rss_mb", max(rss), "MB", len(rss))
    _quality(metrics, load, refs)

    failed = sum(not c.ok for c in checked)
    reference_failures = _reference_failures(load, refs)
    return {
        "metrics": metrics,
        "attempted": len(checked),
        "failed": failed,
        "correct": failed == 0 and not reference_failures,
        "detail": {
            "ready_s": ready,
            "reference_failures": reference_failures,
            **counters,
        },
    }


def _quality(metrics: common.Metrics, load: Load, refs: dict) -> None:
    """The five quality counts over the workload's distinct requests."""
    totals: dict[str, float] = {}
    for item in load.quality_items:
        for name, value in refs[key_of(item)]["quality"].items():
            totals[name] = totals.get(name, 0) + value
    for name in suite.QUALITY:
        metrics.add(name, totals[name], "count", len(load.quality_items))


def _reference_failures(load: Load, refs: dict) -> list[str]:
    """Requests whose reference fails the strict verifier, or that fail
    the semantic check and are not known defects."""
    failing, semantic = [], []
    for item in load.ref_items:
        ref = refs[key_of(item)]
        if not ref["structural"]:
            failing.append(ref["label"])
        elif ref["verdict"] != suite.EQUIVALENT:
            semantic.append(ref["label"])
    return sorted(failing) + suite.unknown_defects(semantic)


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _run_traced(workdir: str, load: Load, refs: dict, semantic_runs: int) -> dict:
    """The phase's first half on a traced server, after an untraced
    baseline and the capacity search.

    The baseline sends the half's first :data:`BASELINE_REQUESTS`
    requests to an untraced server; ``trace.overhead_pct`` compares the
    two p50 latencies over those same requests.  The capacity search
    then runs on the same untraced server.
    """
    phase = load.phase[0::2]
    baseline_items = phase[:BASELINE_REQUESTS]
    base = Server(os.path.join(workdir, "untraced"))
    try:
        untraced = drive(base.port, baseline_items, RATE)
        slo, bracketed, ladder = ladder_search(base, load, refs)
    finally:
        base.stop()

    spans_path = os.path.join(workdir, "spans.json")
    server = Server(os.path.join(workdir, "traced"), spans_path)
    try:
        phase_start = time.perf_counter()
        records = drive(server.port, phase, RATE)
        stats = server.get("/v1/stats")
    finally:
        server.stop()

    checked = check_all(records, phase, refs)
    rows = [r for r in spans.load(spans_path)
            if spans.root_of(r)[spans.START] >= phase_start]
    metrics = service_layers(rows, records, checked, stats)
    traced_p50 = common.median([r.latency_s for r in records[:BASELINE_REQUESTS]])
    untraced_p50 = common.median([r.latency_s for r in untraced])
    metrics.add("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0),
                "%", len(untraced))
    metrics.add("service.slo_rps", slo, "req/s", len(ladder) // PROBE_REQUESTS)
    metrics.add("resilience.verify.semantic_runs", semantic_runs, "count",
                len(load.ref_items))
    metrics.add(
        "resilience.verify.undecided",
        sum(refs[key_of(i)]["verdict"] == suite.UNDECIDED
            for i in load.quality_items),
        "count", len(load.quality_items),
    )
    all_checked = checked + check_all(untraced, baseline_items, refs) + ladder
    failed = sum(not c.ok for c in all_checked)
    reference_failures = _reference_failures(load, refs)
    return {
        "metrics": metrics,
        "attempted": len(all_checked),
        "failed": failed,
        "correct": failed == 0 and bracketed and not reference_failures,
        "detail": {
            "spans": len(rows),
            "ladder_bracketed": bracketed,
            "reference_failures": reference_failures,
        },
    }


def _p50_ms(values_s: list[float]) -> tuple[float, int]:
    if not values_s:
        return 0.0, 0
    return 1000.0 * common.median(values_s), len(values_s)


def service_layers(rows, records, checked, stats) -> common.Metrics:
    """Per-layer metrics of a traced service phase.

    *rows* are the server's spans of the phase (``perf_counter`` is the
    system-wide monotonic clock, so the benchmark's and the server's
    readings compare).
    """
    import compile_suite

    metrics = common.Metrics()
    self_s = spans.self_times(rows)

    def durations(name):
        return [r[spans.END] - r[spans.START] for r in rows if r[spans.NAME] == name]

    def selfs(name):
        return [self_s[id(r)] for r in rows if r[spans.NAME] == name]

    # Compile layers: total self time over the phase.
    for name in compile_suite.SELF_LAYERS:
        values = selfs(name)
        metrics.add(f"{name}.self_ms", 1000.0 * sum(values), "ms", len(values))

    # Join each client request to its handler span by job id.
    handler_of = {}
    for row in rows:
        parent = row[spans.PARENT]
        if (row[spans.NAME] == "service.admission" and parent is not None
                and parent[spans.NAME] == "service.handler" and row[spans.NOTE]):
            handler_of[row[spans.NOTE]["job"]] = parent
    http, unattributed, stages = [], [], {}
    for record, result in zip(records, checked):
        if result.payload is None:
            continue
        job_stages = result.payload.get("stages", {})
        for stage, value in job_stages.items():
            stages.setdefault(stage, []).append(value)
        handler = handler_of.get(result.payload.get("job_id"))
        if handler is None:
            continue
        http.append(record.done - record.sent
                    - (handler[spans.END] - handler[spans.START]))
        waited = sum(job_stages.get(s, 0.0) for s in ("queue_wait", "alloc", "verify"))
        unattributed.append(self_s[id(handler)] - waited)
    metrics.add("unattributed.self_ms",
                1000.0 * sum(unattributed) / max(1, len(unattributed)), "ms",
                len(unattributed))
    for name, values in (
        ("service.http.self_ms_p50", http),
        ("service.normalize.self_ms_p50", selfs("service.normalize")),
        ("service.admission.self_ms_p50", selfs("service.admission")),
        ("service.cache.put_ms_p50", durations("service.cache.put")),
        ("service.cache.get_ms_p50", durations("service.cache.get")),
        ("service.journal.append_ms_p50", durations("service.journal.append")),
        ("service.worker.alloc_ms_p50", stages.get("alloc", [])),
        ("service.verify_ms_p50", stages.get("verify", [])),
        ("service.queue.wait_ms_p50", stages.get("queue_wait", [])),
    ):
        value, count = _p50_ms(values)
        metrics.add(name, value, "ms", count)
    waits = stages.get("queue_wait", [])
    metrics.add("service.queue.wait_ms_p99",
                1000.0 * common.tail_percentile(waits, 99), "ms", len(waits))
    depths = [r[spans.NOTE]["depth"] for r in rows
              if r[spans.NAME] == "service.admission" and r[spans.NOTE]]
    metrics.add("service.queue.depth_max", max(depths, default=0), "count",
                len(depths))
    metrics.add("service.journal.frames", len(durations("service.journal.append")),
                "count", len(records))
    hits = sum(c.payload is not None and c.payload.get("cache") == "hit"
               for c in checked)
    metrics.add("service.cache.hit_ratio", hits / len(checked), "fraction",
                len(checked))
    counters = stats.get("counters", {})
    metrics.add("service.shed", counters.get("shed", 0), "count", len(records))
    metrics.add("service.retries", counters.get("retried", 0), "count",
                len(records))
    lag = [1000.0 * (r.sent - r.due) for r in records]
    metrics.add("loadgen.lag_ms_p99", common.tail_percentile(lag, 99), "ms",
                len(lag))
    metrics.add("loadgen.sent", len(records), "count", len(records))
    return metrics
