"""Re-record the compile-suite's semantic verdicts (``verdicts.json``).

Builds every compile-suite cell and every service request, runs the value
interpreter on the input and the allocated function, and writes one
verdict per (input IR, artifact bytes) pair, stamped with the
interpreter's source digest.  Verdicts already recorded for the same
bytes are kept without re-running.  Run it from the repository root
after a change to the artifact bytes or the interpreter:

    python3 perfbench/record_verdicts.py

It takes several minutes per CPU and uses every CPU; the benchmark itself
re-runs any verdict that is not recorded, so the record only saves time.
It records verdicts only: a cell that fails the semantic check and is not
in ``known_defects.json`` (the seed commit's failures) is reported, the
record is left as it was and the tool exits with status 1.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import suite  # noqa: E402  (needs the path set above)


_VERDICTS: suite.Verdicts | None = None


def _init(known: dict[str, str]) -> None:
    global _VERDICTS
    _VERDICTS = suite.Verdicts(known)


def _verdict(item: suite.Item) -> tuple[str, str, str]:
    from repro.service.artifact import artifact_bytes, build_artifact

    artifact = build_artifact(item.ir, item.file, item.method)
    data = artifact_bytes(artifact)
    verdict = _VERDICTS.of(item, artifact, data)
    return suite.verdict_key(item.ir, data), verdict, suite.label(item)


def main() -> int:
    items = suite.build_matrix()
    seen = {(item.ir, item.method, str(item.file)) for item in items}
    for requests in suite.service_requests().values():
        for item in requests:
            if (item.ir, item.method, str(item.file)) not in seen:
                seen.add((item.ir, item.method, str(item.file)))
                items.append(item)
    known = suite.load_verdicts()
    # Longest first, so one slow kernel does not finish the pool alone.
    items.sort(key=lambda item: -len(item.ir))
    context = multiprocessing.get_context("spawn")
    verdicts: dict[str, str] = {}
    tally: Counter = Counter()
    failing: list[str] = []
    with context.Pool(os.cpu_count(), _init, (known,)) as pool:
        for key, verdict, label in pool.imap_unordered(_verdict, items):
            verdicts[key] = verdict
            tally[verdict] += 1
            if verdict != suite.EQUIVALENT:
                failing.append(label)
                print(f"{verdict}: {label}", flush=True)
    print(dict(tally))
    unknown = suite.unknown_defects(failing)
    if unknown:
        print(f"{len(unknown)} failing cells are not known defects; "
              f"{suite.VERDICTS_PATH} is unchanged:", file=sys.stderr)
        for label in unknown:
            print(f"  {label}", file=sys.stderr)
        return 1
    suite.save_verdicts(verdicts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
