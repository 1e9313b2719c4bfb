"""Set-up probe: a fresh interpreter imports numpy and chiralspin, loads every
input of a run, then prints "ready". The benchmark times it from process
start to that line.

    python3 chiralbench/probe.py SRC_DIR MANIFEST
"""

import json
import sys


def load_inputs(manifest):
    """Parse every model file through chiralspin and every matrix file as JSON."""
    from chiralspin import models

    with open(manifest, encoding="utf-8") as fh:
        entries = json.load(fh)
    for entry in entries:
        if entry["kind"] == "model":
            models.load_model_file(entry["path"])
        else:
            with open(entry["path"], encoding="utf-8") as fh:
                json.load(fh)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import numpy  # noqa: F401  imported first so -X importtime separates it

    import chiralspin.cli  # noqa: F401

    load_inputs(sys.argv[2])
    print("ready", flush=True)
