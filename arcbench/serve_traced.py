"""``repro serve`` with the benchmark's per-layer wrappers installed.

Takes the arguments of ``python -m repro serve``.  After the server drains
(SIGTERM), the request records are printed as one line on stdout::

    arcbench-trace [{"query_id": ..., "self_ms": {...}, ...}, ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as repro_main
    from spans import Recorder

    recorder = Recorder()
    recorder.install(server=True)
    code = repro_main(["serve", *argv])
    print("arcbench-trace " + json.dumps(recorder.dump()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
