"""compile-suite: the paper's evaluation compiled in-process, one thread.

Every cell of :func:`suite.build_matrix` goes through ``build_artifact``
and ``artifact_bytes`` (one request), in an order shuffled by the
workload seed, then again starting from the middle of that order; each
cell's latency is the faster of its two timings.  The work is the whole
matrix twice whatever ``--seconds`` says (about 40 s on a 2-CPU host), so it never depends on
how fast the host happens to be.  After the timed passes every artifact is checked: the
strict :class:`AllocationVerifier` (structure, legality, recomputed
statistics and the content address), then the value interpreter's
verdict, reused from ``verdicts.json`` only for byte-identical inputs.
"""

from __future__ import annotations

import gc
import random
import resource
import subprocess
import sys
import time

import common
import spans
import suite

GENERATION = suite.GENERATION

#: Set-ups timed per run, before the first timed pass, between the two
#: and after the second, so one slow stretch of the host does not decide
#: ``setup_s`` (their median).
SETUP_REPEATS = (2, 1, 2)

#: Code that one set-up runs in a fresh interpreter.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {here!r}); import suite; "
    "import repro.service.artifact, repro.resilience.verifier; "
    "suite.build_matrix()"
)


def _setup_seconds(repeats: int) -> list[float]:
    """Wall times of fresh-interpreter imports plus suite generation."""
    code = SETUP_CODE.format(here=common.HERE)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=common.python_env(),
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - started)
    return times


def _short(items: list[suite.Item]) -> list[suite.Item]:
    """The self-test's matrix: everything but the 16-point IDFT."""
    return [item for item in items if not item.function.startswith("idft")]


def _request(item: suite.Item):
    """One request: the artifact and its canonical bytes."""
    from repro.service.artifact import artifact_bytes, build_artifact

    artifact = build_artifact(item.ir, item.file, item.method)
    return artifact, artifact_bytes(artifact)


def _compile(items, request=_request):
    """One pass: (seconds, artifact dict, bytes) per item, in order."""
    out = []
    for item in items:
        started = time.perf_counter()
        artifact, data = request(item)
        out.append((time.perf_counter() - started, artifact, data))
    return out


def check(items, results):
    """Verify every artifact; returns per-item status and tallies."""
    from repro.resilience.verifier import AllocationVerifier
    from repro.service.artifact import cache_key

    verifier = AllocationVerifier("strict")
    verdicts = suite.Verdicts()
    outcome = {
        "structural_failures": [], "not_equivalent": [], "undecided": [],
        "ok": 0,
    }
    for item, (_, artifact, data) in zip(items, results):
        label = suite.label(item)
        expected = cache_key(item.ir, item.file, item.method)
        report = verifier.verify_bytes(data, expected_key=expected)
        if not report.ok:
            outcome["structural_failures"].append((label, report.findings[:2]))
            continue
        verdict = verdicts.of(item, artifact, data)
        if verdict == suite.EQUIVALENT:
            outcome["ok"] += 1
        elif verdict == suite.UNDECIDED:
            outcome["undecided"].append(label)
        else:
            outcome["not_equivalent"].append(label)
    verdicts.remember()
    outcome["semantic_runs"] = len(verdicts.fresh)
    outcome["unknown_defects"] = suite.unknown_defects(
        outcome["not_equivalent"] + outcome["undecided"]
    )
    return outcome


def quality(items, results) -> dict[str, float]:
    """The five code-quality counts summed over the bpc cells.

    ``dynamic_conflicts`` is summed over the RV cells and ``dsa_cycles``
    over the DSA-OP cells, as the paper's evaluation measures them.
    """
    totals = dict.fromkeys(suite.QUALITY, 0.0)
    for item, (_, artifact, _) in zip(items, results):
        if item.method != "bpc":
            continue
        counts = suite.quality_of(item, artifact)
        if item.file == suite.DSA_FILE:
            counts["dynamic_conflicts"] = 0
        else:
            counts["dsa_cycles"] = 0
        for name, value in counts.items():
            totals[name] += value
    return totals


def run(seed: int, trace: bool, short: bool) -> dict:
    """One compile-suite run.  The matrix fixes the work, so the run
    length (``--seconds``) is not consulted."""
    setups = _setup_seconds(SETUP_REPEATS[0])
    items = suite.build_matrix()
    if short:
        items = _short(items)
    random.Random(seed).shuffle(items)
    if trace:
        return _run_traced(items, common.median(setups))

    gc.collect()
    first = _compile(items)
    setups += _setup_seconds(SETUP_REPEATS[1])
    gc.collect()
    # The second pass starts from the middle of the order, so the two
    # timings of every cell lie half a pass to a pass and a half apart and
    # a burst of host contention (seconds long here) rarely hits both; each
    # cell keeps its faster timing.  (A reversed pass would time the last
    # cells twice back to back.)
    half = len(items) // 2
    second = _compile(items[half:] + items[:half])
    second = second[len(items) - half:] + second[:len(items) - half]
    setups += _setup_seconds(SETUP_REPEATS[2])
    samples = [min(a[0], b[0]) for a, b in zip(first, second)]
    mismatched = sum(a[2] != b[2] for a, b in zip(first, second))

    outcome = check(items, first)
    counts = quality(items, first)

    metrics = common.Metrics()
    metrics.add("setup_s", common.median(setups), "s", len(setups))
    metrics.latency(samples)
    instructions = sum(item.instructions for item in items)
    metrics.add("instrs_per_s", instructions / sum(samples), "instr/s",
                len(samples))
    metrics.add("success_rate", outcome["ok"] / len(items), "fraction",
                len(items))
    metrics.add(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
    )
    bpc = sum(item.method == "bpc" for item in items)
    for name, value in counts.items():
        metrics.add(name, value, "count", bpc)
    failed = len(outcome["structural_failures"]) + mismatched
    return {
        "metrics": metrics,
        "attempted": 2 * len(items),
        "failed": failed,
        "correct": failed == 0 and not outcome["unknown_defects"],
        "detail": {
            "unknown_defects": outcome["unknown_defects"],
            "not_equivalent": outcome["not_equivalent"],
            "undecided": outcome["undecided"],
            "structural_failures": outcome["structural_failures"],
            "semantic_runs": outcome["semantic_runs"],
            "byte_mismatches_between_passes": mismatched,
        },
    }


#: Cells whose calls are counted with ``sys.setprofile`` in a traced run:
#: the CNN-KERNEL suite under every method plus the DSA-OP bpc kernels
#: other than the IDFT, so every compile layer, sdg-split included, runs.
def _kcalls_items(items):
    return [
        item for item in items
        if item.suite == "CNN-KERNEL"
        or (item.suite == "DSA-OP" and item.method == "bpc"
            and not item.function.startswith("idft"))
    ]


def _run_traced(items, setup_s: float) -> dict:
    probe = sorted(
        _kcalls_items(items), key=lambda i: (i.suite, i.function, i.method)
    )
    _compile(probe)  # warm-up: first calls pay for lazy imports
    gc.collect()
    untraced = sum(elapsed for elapsed, _, _ in _compile(probe))

    recorder = spans.Recorder()
    spans.install(recorder, spans.COMPILE_LAYERS)
    gc.collect()
    results = _compile(items, recorder.wrap("request", _request))
    by_id = {id(item): result for item, result in zip(items, results)}
    traced_probe = sum(by_id[id(item)][0] for item in probe)

    # Only spans inside a request; the verifier's calls come later.
    recorded = [
        s for s in recorder.spans if spans.root_of(s)[spans.NAME] == "request"
    ]
    self_s = spans.self_times(recorded)

    gc.collect()
    gc.disable()
    try:
        with spans.CallCounter(recorder) as counter:
            _compile(probe, recorder.wrap("request", _request))
    finally:
        gc.enable()

    outcome = check(items, results)
    per_layer = layer_metrics(recorded, self_s, results, len(items))
    per_layer.add("trace.overhead_pct", 100.0 * (traced_probe / untraced - 1.0),
                  "%", len(probe))
    per_layer.add("resilience.verify.semantic_runs", outcome["semantic_runs"],
                  "count", len(items))
    per_layer.add("resilience.verify.undecided", len(outcome["undecided"]),
                  "count", len(items))
    for name in KCALL_LAYERS:
        label = "unattributed" if name == "request" else name
        per_layer.add(f"{label}.kcalls", counter.calls.get(name, 0) / 1000.0,
                      "kcalls", len(probe))
    failed = len(outcome["structural_failures"])
    return {
        "metrics": per_layer,
        "attempted": len(items),
        "failed": failed,
        "correct": failed == 0 and not outcome["unknown_defects"],
        "detail": {
            "unknown_defects": outcome["unknown_defects"],
            "setup_s": setup_s,
            "traced_latency_ms": 1000.0 * sum(
                s[spans.END] - s[spans.START]
                for s in recorded if s[spans.PARENT] is None
            ),
            "self_ms": {
                name: value for name, value in per_layer.values.items()
                if name.endswith(".self_ms")
            },
        },
    }


#: Layers whose self region is charged call counts (``<layer>.kcalls``).
KCALL_LAYERS = (
    "request", "service.artifact", "service.artifact_bytes", "ir.parse",
    "ir.print", "ir.flat_lower", "analysis", "prescount.coalescing",
    "prescount.scheduling", "prescount.bank_assignment",
    "prescount.allocation", "prescount.sdg_split", "alloc.greedy",
    "sim.static",
)

#: Compile layers whose self time is totalled per run (``<layer>.self_ms``).
SELF_LAYERS = KCALL_LAYERS[1:]


def layer_metrics(recorded, self_s, results, requests: int) -> common.Metrics:
    """Per-layer totals and work counts of the traced pass."""
    totals: dict[str, float] = dict.fromkeys(SELF_LAYERS + ("request",), 0.0)
    calls: dict[str, int] = dict.fromkeys(SELF_LAYERS, 0)
    analysis_hits = analysis_computed = sdg_copies = 0
    for span in recorded:
        name = span[spans.NAME]
        totals[name] += self_s[id(span)]
        if name in calls:
            calls[name] += 1
        if name == "analysis":
            analysis_computed += span[spans.NOTE]
            analysis_hits += 1 - span[spans.NOTE]
        elif name == "prescount.sdg_split":
            sdg_copies += span[spans.NOTE]
    metrics = common.Metrics()
    for name in SELF_LAYERS:
        metrics.add(f"{name}.self_ms", 1000.0 * totals[name], "ms", calls[name])
    metrics.add("unattributed.self_ms", 1000.0 * totals["request"], "ms",
                requests)
    metrics.add("ir.parse.calls_per_request", calls["ir.parse"] / requests,
                "calls", requests)
    metrics.add("ir.flat_lower.per_request", calls["ir.flat_lower"] / requests,
                "calls", requests)
    metrics.add("analysis.computed", analysis_computed, "count",
                analysis_computed + analysis_hits)
    metrics.add(
        "analysis.hit_ratio",
        analysis_hits / max(1, analysis_hits + analysis_computed), "fraction",
        analysis_computed + analysis_hits,
    )
    metrics.add("prescount.sdg_split.copies", sdg_copies, "count",
                calls["prescount.sdg_split"])
    stats = [artifact["stats"] for _, artifact, _ in results]
    for name, key in (("alloc.evictions", "evictions"),
                      ("alloc.spill_instructions", "spill_instructions"),
                      ("alloc.copies_inserted", "copies_inserted")):
        metrics.add(name, sum(s[key] for s in stats), "count", len(stats))
    return metrics
