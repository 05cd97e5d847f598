"""Rewrite ``tests/golden/ledger.json`` from the current tree.

Run from the repository root::

    PYTHONPATH=src python tests/golden/rebuild.py

Every payload record is recomputed on a serial engine context of the
record's parallelism, and every CLI-table record by running the CLI as
it runs for a user.  The script
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
    CLI_ARGVS,
    LEDGER_PATH,
    RECORDS,
    cli_id,
    cli_sha,
    load_cli_ledger,
    load_ledger,
    payload_sha,
    record_id,
)


def _report(old, new) -> int:
    """Print the records that moved, were added or dropped; count the first two."""
    moved = 0
    for rid, sha in new.items():
        if old.get(rid) != sha:
            moved += 1
            print(("moved " if rid in old else "added ") + rid)
    for rid in sorted(set(old) - set(new)):
        print("dropped " + rid)
    return moved


def main() -> int:
    exists = LEDGER_PATH.exists()
    contexts = {}
    try:
        rows = []
        for record in RECORDS:
            parallelism = record["parallelism"]
            if parallelism not in contexts:
                contexts[parallelism] = Context(mode="serial", parallelism=parallelism)
            rows.append({**record, "sha256": payload_sha(record, contexts[parallelism])})
    finally:
        for ctx in contexts.values():
            ctx.stop()
    cli_rows = [{"argv": argv, "sha256": cli_sha(argv)} for argv in CLI_ARGVS]
    moved = _report(load_ledger() if exists else {},
                    {record_id(r): r["sha256"] for r in rows})
    moved += _report(load_cli_ledger() if exists else {},
                     {cli_id(r["argv"]): r["sha256"] for r in cli_rows})
    with open(LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump({"records": rows, "cli": cli_rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(rows)} payload and {len(cli_rows)} CLI records, {moved} moved or added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
