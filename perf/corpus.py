#!/usr/bin/env python3
"""Rebuild ``perf/corpus.json``: how many tests each request seed takes.

    python3 perf/corpus.py                    all four request shapes (~10 min)
    python3 perf/corpus.py --shape dense-12-0.05

A screen's work is decided by how many stages it runs, and that is a
deterministic function of the request (cohort, prevalence, backend,
seed) whatever executor runs it.  The corpus records it for request
seeds ``0 .. count-1`` of every shape the workloads use (for a campaign:
the tests of all its rounds), so that ``workloads.py`` can hand out
blocks with one request from every slice of the work distribution.
Rebuild it when a change to the program alters how many tests screens
take (``tests_per_individual`` moves); stale labels only make the blocks
less even, never wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
#: Request bodies without their seed, and how many seeds are labelled.
SHAPES = {
    "dense-12-0.05": ({"cohort": 12, "prevalence": 0.05}, 2000),
    "dense-18-0.01": ({"cohort": 18, "prevalence": 0.01}, 2000),
    "sparse-120-0.02": ({"cohort": 120, "prevalence": 0.02, "backend": "sparse"}, 2000),
    "surveil-12x10": ({"sites": 12, "cohort": 10, "rounds": 12, "budget": 6,
                       "allocator": "thompson"}, 600),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.engine.context import Context
    from repro.serve.protocol import ScreenRequest, SurveilRequest

    corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    with Context(mode="serial", parallelism=1) as ctx:
        for shape in args.shape or sorted(SHAPES):
            body, count = SHAPES[shape]
            if "sites" in body:
                corpus[shape] = [
                    SurveilRequest.from_payload({**body, "seed": seed})
                    .execute(None)["summary"]["total_tests"] for seed in range(count)
                ]
            else:
                corpus[shape] = [
                    ScreenRequest.from_payload({**body, "seed": seed})
                    .execute(ctx)["summary"]["tests"] for seed in range(count)
                ]
            print(f"{shape}: {count} seeds, mean {sum(corpus[shape]) / count:.2f} tests",
                  file=sys.stderr)
    CORPUS.write_text(json.dumps(corpus, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
