#!/usr/bin/env python3
"""Compare the sha256 digests of a timing script's JSON line with `digests.json`.

`time_count_flats.py` and `time_oracles.py` print one `sha256` per input,
`time_pages.py` one for the whole run.  `digests.json`, beside this script,
pins them per script, keyed by input (by `sha256` for a whole-run digest).
Reads the script's output on stdin, names each digest that differs, is
missing or is not pinned, and exits 1 if there is one:

    PYTHONPATH=src python scripts/time_oracles.py | python scripts/check_digests.py time_oracles.py
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "digests.json"


def digests(result: dict) -> dict:
    """{input: sha256} of one JSON line, with a whole-run digest under `sha256`."""
    found = {name: case["sha256"] for name, case in result.items() if isinstance(case, dict)}
    if "sha256" in result:
        found["sha256"] = result["sha256"]
    return found


def main(script: str) -> int:
    want = json.loads(PINNED.read_text(encoding="utf-8"))[script]
    got = digests(json.loads(sys.stdin.read().strip().splitlines()[-1]))
    bad = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in bad:
        print(f"{script} {name}: sha256 {got.get(name)}, pinned {want.get(name)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
