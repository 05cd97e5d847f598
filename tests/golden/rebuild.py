"""Rewrite ``tests/golden/ledger.json`` from the current tree.

Run from the repository root::

    PYTHONPATH=src python tests/golden/rebuild.py

Every record is recomputed on a serial engine context.  The script
prints each record whose hash moved (and any added or dropped), then
writes the ledger.  The ledger is a check: a change that moves records
says which ones and why.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from repro.engine import Context  # noqa: E402
from tests.golden.records import (  # noqa: E402
    LEDGER_PATH,
    RECORDS,
    load_ledger,
    payload_sha,
    record_id,
)


def main() -> int:
    old = load_ledger() if LEDGER_PATH.exists() else {}
    rows = []
    moved = 0
    with Context(mode="serial", parallelism=2) as ctx:
        for record in RECORDS:
            rid = record_id(record)
            sha = payload_sha(record, ctx)
            rows.append({**record, "sha256": sha})
            if old.get(rid) != sha:
                moved += 1
                print(("moved " if rid in old else "added ") + rid)
    for rid in sorted(set(old) - {record_id(r) for r in RECORDS}):
        print("dropped " + rid)
    with open(LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump({"records": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(rows)} records, {moved} moved or added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
