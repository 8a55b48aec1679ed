"""Set-up probe: start, import ghderiv's CLI, load the given JSON documents.

    python3 perfbench/probe.py [FILE_OR_DIR ...]

Prints ``ready`` once the first operation could run.  run.py times it from
process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ghderiv.cli  # noqa: E402,F401

for arg in sys.argv[1:]:
    path = Path(arg)
    for doc in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        with open(doc, encoding="utf-8") as fh:
            json.load(fh)
print("ready", flush=True)
