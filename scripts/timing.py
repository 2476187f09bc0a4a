"""What the three timing scripts share: a best-of timer, a sha256 digest and the pin check.

`time_count_flats.py` and `time_oracles.py` print one `sha256` per input,
`time_pages.py` one for the whole run.  `digests.json`, beside this module,
pins them per script, keyed by input (by `sha256` for a whole-run digest).
`report` prints a script's JSON line, names on stderr each digest that
differs from its pin, is missing or is not pinned, and returns the exit
code: 1 if there is one, else 0.
"""

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

PINNED = Path(__file__).resolve().parent / "digests.json"


def best_of(repeat: int, fn) -> tuple[float, object]:
    """(best of `repeat` wall times of fn(), the result of the last call)."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return min(times), result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(result: dict) -> dict:
    """{input: sha256} of one JSON line, with a whole-run digest under `sha256`."""
    found = {name: case["sha256"] for name, case in result.items() if isinstance(case, dict)}
    if "sha256" in result:
        found["sha256"] = result["sha256"]
    return found


def report(script: str, result: dict, pinned: Path = PINNED) -> int:
    """Print `result` as one JSON line and check its digests against `script`'s pins."""
    print(json.dumps(result, sort_keys=True))
    want = json.loads(pinned.read_text(encoding="utf-8"))[script]
    got = digests(result)
    bad = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in bad:
        print(f"{script} {name}: sha256 {got.get(name)}, pinned {want.get(name)}", file=sys.stderr)
    return 1 if bad else 0
