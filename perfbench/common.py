"""Shared helpers: percentiles, metric records, fingerprint and memory."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(values, q: float) -> float:
    """:func:`percentile`, refusing a tail that rests on too few samples."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:.1f} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return percentile(values, q)


class Metrics:
    """Named metrics, each with its value, unit and sample count."""

    def __init__(self):
        self.values: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        if name in self.values:
            raise ValueError(f"metric {name} reported twice")
        self.values[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }

    def latency(self, samples_s: list[float]) -> None:
        """``latency_p50_ms`` and ``latency_p99_ms`` from seconds."""
        ms = [s * 1000.0 for s in samples_s]
        self.add("latency_p50_ms", percentile(ms, 50), "ms", len(ms))
        self.add("latency_p99_ms", tail_percentile(ms, 99), "ms", len(ms))


def median(values) -> float:
    return percentile(values, 50)


def src_digest() -> str:
    """sha256 over every Python source file of the program under test."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def fingerprint(workload: str, seed: int, generation: dict, *, short: bool) -> dict:
    """What a result was measured on.

    ``config`` must be equal for two results to be compared; ``code``
    names the program version, which is what a comparison varies.
    """
    import numpy

    from repro.ir.flat import fast_mode

    return {
        "config": {
            "workload": workload,
            "seed": seed,
            "short": short,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "repro_fast": fast_mode(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "generation": generation,
        },
        "code": {"git_commit": git_commit(), "src_sha256": src_digest()},
    }


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def python_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
