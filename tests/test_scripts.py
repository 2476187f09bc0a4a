"""The pin check that the timing scripts run on their own digests (`scripts/timing.py`)."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _timing():
    spec = importlib.util.spec_from_file_location("timing", SCRIPTS / "timing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_check_names_each_digest_off_its_pin(tmp_path, capsys):
    timing = _timing()
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"time_x.py": {"changed": "a", "missing": "b", "kept": "c"}}))
    result = {"changed": {"sha256": "z"}, "kept": {"sha256": "c"}, "unpinned": {"sha256": "d"}}
    assert timing.report("time_x.py", result, pins) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == result
    assert err.splitlines() == [
        "time_x.py changed: sha256 z, pinned a",
        "time_x.py missing: sha256 None, pinned b",
        "time_x.py unpinned: sha256 d, pinned None",
    ]


def test_pin_check_passes_on_its_pins(tmp_path, capsys):
    timing = _timing()
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"time_x.py": {"sha256": "a"}}))
    # A whole-run digest sits at the top level of the line, beside the times.
    assert timing.report("time_x.py", {"pairs": 2, "s": 0.5, "sha256": "a"}, pins) == 0
    assert capsys.readouterr().err == ""


def test_every_timing_script_is_pinned():
    pinned = json.loads((SCRIPTS / "digests.json").read_text(encoding="utf-8"))
    assert set(pinned) == {path.name for path in SCRIPTS.glob("time_*.py")}
    for path in SCRIPTS.glob("time_*.py"):
        assert f'report("{path.name}", ' in path.read_text(encoding="utf-8")
