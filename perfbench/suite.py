"""The compile-suite input matrix and its recorded semantic verdicts.

The matrix is the paper's evaluation at the harness defaults
(``ExperimentContext()``): SPECfp-like at scale 0.05, CNN-KERNEL at 0.5
and DSA-OP with the 16-point IDFT, each under ``non``, ``bcr`` and
``bpc``.  SPECfp and CNN run on Platform-RV#2's 32-register 2-bank file,
DSA-OP on Platform-DSA's 1024-register 2x4 bank-subgroup file.

The value interpreter's equivalence check costs about 50x a compile, so
its verdicts are recorded in ``verdicts.json``.  A verdict is reused only
when the input IR, the artifact bytes and the interpreter's source are
byte-identical to the recorded ones; anything else is re-run.  The cells
that failed the check at the seed commit are listed, once and for all,
in ``known_defects.json``: they count against ``success_rate``, and any
other failing cell makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS_PATH = os.path.join(HERE, "verdicts.json")
#: Verdicts computed by runs in this checkout (not committed).
RUN_VERDICTS_PATH = os.path.join(os.path.dirname(HERE), ".perfbench", "verdicts.json")
#: Cells that failed the semantic check at the seed commit (fixed list).
KNOWN_DEFECTS_PATH = os.path.join(HERE, "known_defects.json")

METHODS = ("non", "bcr", "bpc")
RV_FILE = {"registers": 32, "banks": 2}
DSA_FILE = {"registers": 1024, "banks": 2, "subgroups": 4}

#: Largest function (in instructions) service-cold sends: small requests
#: make the per-request layers a large share of each request's time.
SMALL_INSTRUCTIONS = 150

#: Requests service-cold's fixed-rate phase sends: two halves of 1000,
#: so each half's p99 has 10 samples beyond it.
COLD_REQUESTS = 2000

#: Functions whose non and bcr requests feed service-cold's capacity probes.
LADDER_FUNCTIONS = 1000

#: Generator seeds service-cold draws its small functions from.
SERVICE_GENERATOR_SEEDS = 4

#: Generation parameters of the matrix; part of every result's fingerprint.
GENERATION = {
    "spec_scale": 0.05,
    "cnn_scale": 0.5,
    "idft_points": 16,
    "generator_seed": 0,
    "service_generator_seeds": SERVICE_GENERATOR_SEEDS,
    "service_cold_max_instructions": SMALL_INSTRUCTIONS,
    "service_cold_requests": COLD_REQUESTS,
    "rv_file": RV_FILE,
    "dsa_file": DSA_FILE,
    "methods": list(METHODS),
}

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Item:
    """One cell of the matrix: a function under one method and file."""

    suite: str
    function: str
    ir: str
    file: dict
    method: str
    #: Whether the suite's test input reaches the function (dynamic counts).
    covered: bool = True

    @property
    def instructions(self) -> int:
        return instruction_count(self.ir)


def instruction_count(ir: str) -> int:
    """Instruction lines of printed IR (the printer indents only those)."""
    return sum(1 for line in ir.splitlines() if line.startswith("  "))


def _rv_functions(generator_seed: int) -> list[tuple[str, str, str, bool]]:
    """(suite, name, printed IR, covered) of the RV suites at one seed."""
    from repro.experiments.harness import ExperimentContext
    from repro.ir.printer import print_function

    ctx = ExperimentContext(
        spec_scale=GENERATION["spec_scale"],
        cnn_scale=GENERATION["cnn_scale"],
        seed=generator_seed,
    )
    return [
        (suite_name, fn.name, print_function(fn), fn.attrs.get("covered", True))
        for suite_name in ("SPECfp", "CNN-KERNEL")
        for program in ctx.suite(suite_name).programs
        for fn in program.module.functions
    ]


def build_matrix() -> list[Item]:
    """Every compile-suite cell, in suite order."""
    from repro.experiments.harness import ExperimentContext
    from repro.ir.printer import print_function

    functions = _rv_functions(GENERATION["generator_seed"])
    ctx = ExperimentContext(
        idft_points=GENERATION["idft_points"],
        seed=GENERATION["generator_seed"],
    )
    dsa = [
        ("DSA-OP", fn.name, print_function(fn), True)
        for program in ctx.suite("DSA-OP").programs
        for fn in program.module.functions
    ]
    items = []
    for group, file_spec in ((functions, RV_FILE), (dsa, DSA_FILE)):
        for suite_name in dict.fromkeys(entry[0] for entry in group):
            for method in METHODS:
                items.extend(
                    Item(entry[0], entry[1], entry[2], file_spec, method,
                         entry[3])
                    for entry in group if entry[0] == suite_name
                )
    return items


def service_requests() -> dict[str, list[Item]]:
    """The service workloads' request sets, all on the RV#2 32x2 file.

    * ``cold``: :data:`COLD_REQUESTS` distinct small RV functions (at
      most :data:`SMALL_INSTRUCTIONS`) under bpc, from generator seeds
      0, 1, ... in suite order; service-cold's fixed-rate phase serves
      each once;
    * ``ladder``: the first :data:`LADDER_FUNCTIONS` of them under non
      and bcr -- distinct keys that keep the capacity probes cold too.
    """
    seen: set[str] = set()
    small = []
    for offset in range(SERVICE_GENERATOR_SEEDS):
        for s, name, text, cov in _rv_functions(GENERATION["generator_seed"] + offset):
            if text not in seen and instruction_count(text) <= SMALL_INSTRUCTIONS:
                seen.add(text)
                small.append((s, f"{name}@g{offset}" if offset else name, text, cov))
    cold = [
        Item(s, name, text, RV_FILE, "bpc", cov)
        for s, name, text, cov in small[:COLD_REQUESTS]
    ]
    ladder = [
        Item(s, name, text, RV_FILE, method, cov)
        for method in ("non", "bcr")
        for s, name, text, cov in small[:LADDER_FUNCTIONS]
    ]
    return {"cold": cold, "ladder": ladder}


def interpreter_digest() -> str:
    """sha256 of the value interpreter's source file."""
    import repro.sim.exec as interp

    with open(interp.__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verdict_key(ir: str, data: bytes) -> str:
    """Content address of one (input IR, artifact bytes) pair."""
    return hashlib.sha256(ir.encode("utf-8") + b"\0" + data).hexdigest()


def semantic_verdict(ir: str, artifact_ir: str) -> str:
    """Run the value interpreter on the input and the allocated function."""
    from repro.ir.parser import parse_function
    from repro.sim.exec import ExecutionError, observably_equivalent

    try:
        same = observably_equivalent(
            parse_function(ir), parse_function(artifact_ir)
        )
    except ExecutionError:
        return UNDECIDED
    return EQUIVALENT if same else NOT_EQUIVALENT


def label(item: Item) -> str:
    return f"{item.suite}/{item.function}/{item.method}"


def _record(path: str = VERDICTS_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"verdicts": {}}


def load_verdicts() -> dict[str, str]:
    """Verdicts valid for the interpreter source as it is now.

    The committed record plus the verdicts earlier runs in this checkout
    computed themselves (:meth:`Verdicts.remember`).
    """
    digest = interpreter_digest()
    verdicts: dict[str, str] = {}
    for path in (VERDICTS_PATH, RUN_VERDICTS_PATH):
        record = _record(path)
        if record.get("interpreter_sha256") == digest:
            verdicts.update(record["verdicts"])
    return verdicts


class Verdicts:
    """Semantic verdicts by (input IR, artifact bytes).

    A verdict is looked up in *known*; a missing one is computed by the
    value interpreter and kept in :attr:`fresh`.
    """

    def __init__(self, known: dict[str, str] | None = None):
        self.known = load_verdicts() if known is None else known
        self.fresh: dict[str, str] = {}

    def of(self, item: Item, artifact: dict, data: bytes) -> str:
        key = verdict_key(item.ir, data)
        verdict = self.known.get(key) or self.fresh.get(key)
        if verdict is None:
            verdict = self.fresh[key] = semantic_verdict(item.ir, artifact["ir"])
            if len(self.fresh) % 50 == 0:
                # Saved as they come, so a run cut short still leaves its
                # verdicts to the next run in this checkout.
                self.remember()
        return verdict

    def remember(self) -> None:
        """Keep the fresh verdicts for later runs in this checkout."""
        if not self.fresh:
            return
        digest = interpreter_digest()
        record = _record(RUN_VERDICTS_PATH)
        if record.get("interpreter_sha256") != digest:
            record = {"interpreter_sha256": digest, "verdicts": {}}
        record["verdicts"].update(self.fresh)
        os.makedirs(os.path.dirname(RUN_VERDICTS_PATH), exist_ok=True)
        tmp = f"{RUN_VERDICTS_PATH}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp, RUN_VERDICTS_PATH)


def save_verdicts(verdicts: dict[str, str]) -> None:
    """Write the committed verdict record."""
    record = {
        "interpreter_sha256": interpreter_digest(),
        "verdicts": dict(sorted(verdicts.items())),
    }
    with open(VERDICTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")


def known_defects() -> frozenset[str]:
    """Labels of the cells that failed the semantic check at the seed.

    The list is fixed: nothing the benchmark runs writes it.  Its cells
    count against ``success_rate`` in every run, and a run is marked
    incorrect when any other cell fails.
    """
    with open(KNOWN_DEFECTS_PATH, encoding="utf-8") as fh:
        return frozenset(json.load(fh))


def unknown_defects(failing: list[str]) -> list[str]:
    """The labels in *failing* that are not known defects."""
    return sorted(set(failing) - known_defects())


QUALITY = ("static_conflicts", "dynamic_conflicts", "dsa_cycles", "spills",
           "code_size_instrs")


def quality_of(item: Item, artifact: dict) -> dict[str, float]:
    """The five code-quality counts of one artifact, on its own file.

    ``dynamic_conflicts`` is 0 for a function the suite's test input does
    not reach.
    """
    from repro.ir.parser import parse_function
    from repro.service.artifact import build_register_file
    from repro.sim.dsa import DsaMachine
    from repro.sim.dynamic import estimate_dynamic_conflicts

    register_file = build_register_file(item.file)
    allocated = parse_function(artifact["ir"])
    dynamic = 0
    if item.covered:
        dynamic = round(
            estimate_dynamic_conflicts(allocated, register_file)
            .conflicting_sites
        )
    return {
        "static_conflicts": artifact["stats"]["static_conflicts"],
        "dynamic_conflicts": dynamic,
        "dsa_cycles": DsaMachine(register_file).run(allocated).cycles,
        "spills": artifact["stats"]["spills"],
        "code_size_instrs": instruction_count(artifact["ir"]),
    }
