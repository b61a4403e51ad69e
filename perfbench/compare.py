"""Compare two results of ``run.py`` measured on the same config.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file is the standard output of one run.  The comparison is refused
(exit 2) when the two config fingerprints differ -- another seed, CPU
count, Python or numpy version, ``REPRO_FAST`` mode, ``PYTHONHASHSEED``
or input generation -- since such results are not comparable.
"""

from __future__ import annotations

import json
import sys


def report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"report"'):
                return json.loads(line)["report"]
    raise SystemExit(f"{path}: no report line")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = report(argv[0]), report(argv[1])
    a, b = before["fingerprint"]["config"], after["fingerprint"]["config"]
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if differ:
        print(f"not comparable: config differs in {differ}", file=sys.stderr)
        return 2
    for name, old in before["metrics"].items():
        new = after["metrics"][name]
        change = (
            f"{100.0 * (new['value'] / old['value'] - 1.0):+.2f}%"
            if old["value"] else "n/a"
        )
        print(f"{name:40s} {old['value']:>14.6g} {new['value']:>14.6g} "
              f"{old['unit']:10s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
