"""Start ``repro serve`` with span wrappers installed, for traced runs.

    python3 perfbench/launcher.py --spans OUT.json serve --port 0 ...

Imports the program, installs the compile and service wrappers of
:mod:`spans`, then calls the same entry point as ``repro serve``, and
writes the spans to ``OUT.json`` when the server has shut down.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"] or len(argv) < 3:
        print("usage: launcher.py --spans OUT.json serve ...", file=sys.stderr)
        return 2
    path, serve_args = argv[1], argv[2:]

    import repro.cli
    import repro.service.server  # noqa: F401  (wrapped below)
    import spans

    recorder = spans.Recorder()
    spans.install(recorder, spans.COMPILE_LAYERS)
    spans.install(recorder, spans.SERVICE_LAYERS)
    try:
        return repro.cli.main(serve_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
