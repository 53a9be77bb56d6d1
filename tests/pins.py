"""The one harness behind the pin files: their format, their check and
their ``--write`` entry point.

A pin file maps each pinned case's key to the sha256 of the case's record,
written as ``json.dumps(pins, indent=1, sort_keys=True)`` plus a newline.
Each ``test_*_pins.py`` module lists its cases and builds their records;
a change that moves pins on purpose rewrites them with

    PYTHONPATH=src python tests/test_<name>_pins.py --write

This module is not a test module, so pytest does not collect it.
"""

import hashlib
import json
import os
import sys


def digest(record):
    """sha256 of a record's JSON text."""
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def check_pins(path, got):
    """Assert that ``got`` pins the keys of ``path`` with the same digests."""
    pins = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(pins)
    assert [k for k in got if got[k] != pins[k]] == []


def write_pins(path, digests):
    """Rewrite ``path`` with ``digests()`` when the script is run as
    ``--write``; any other arguments get a usage error."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {os.path.basename(sys.argv[0])} --write")
    pins = digests()
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {path}")
