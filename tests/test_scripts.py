"""The stage-timing script `scripts/time_stages.py`: its pin check, its pins and its stages."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _time_stages():
    spec = importlib.util.spec_from_file_location("time_stages", SCRIPTS / "time_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_check_names_each_digest_off_its_pin(tmp_path, capsys):
    script = _time_stages()
    pins = tmp_path / "digests.json"
    x = {"changed": "a", "missing": "b", "kept": "c"}
    pins.write_text(json.dumps({"x": x}))
    result = {
        "x": {"parse_s": 0.5, "sha256": {"changed": "z", "kept": "c"}},
        "y": {"sha256": {"unpinned": "d"}},
    }
    assert script.report(result, pins) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == result
    assert err.splitlines() == [
        "time_stages.py x changed: sha256 z, pinned a",
        "time_stages.py x missing: sha256 None, pinned b",
        "time_stages.py y unpinned: sha256 d, pinned None",
    ]


def test_pin_check_passes_on_its_pins(tmp_path, capsys):
    script = _time_stages()
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"page_engine": {"pages": "a"}}))
    result = {"page_engine": {"pairs": 2, "construct_s": 0.5, "sha256": {"pages": "a"}}}
    assert script.report(result, pins) == 0
    assert capsys.readouterr().err == ""


def test_every_timing_script_is_pinned():
    # One timing script, with one count-table pin per input and one sweep pin per swept input.
    pinned = json.loads((SCRIPTS / "digests.json").read_text(encoding="utf-8"))
    assert sorted(path.name for path in SCRIPTS.glob("tim*.py")) == ["time_stages.py"]
    assert "report(out)" in (SCRIPTS / "time_stages.py").read_text(encoding="utf-8")
    script = _time_stages()
    want = {name: {"count_flats", "poset"} if name in script.SWEPT else {"count_flats"}
            for name in script.INPUTS}
    want["page_engine"] = {"pages"}
    assert {name: set(case) for name, case in pinned.items()} == want


def test_main_exits_1_on_a_digest_off_its_pin_or_a_disagreeing_oracle(monkeypatch, capsys):
    # `main` with its stages stubbed to give the pinned digests, then one answer spoiled.
    script = _time_stages()
    pinned = json.loads((SCRIPTS / "digests.json").read_text(encoding="utf-8"))
    cases = {name: {"betti": [1, 1], "mobius": [1, 1], "whitney": [1, 1], "sha256": dict(pins)}
             for name, pins in pinned.items()}
    names = {text: name for name, text in script.INPUTS.items()}
    monkeypatch.setattr(script, "stages", lambda text, sweep: cases[names[text]])
    monkeypatch.setattr(script, "page_engine", lambda: cases["page_engine"])
    assert script.main() == 0
    assert capsys.readouterr().err == ""

    cases["d7"]["sha256"]["count_flats"] = "0" * 64
    assert script.main() == 1
    assert capsys.readouterr().err.startswith("time_stages.py d7 count_flats: sha256 000")

    cases["d7"]["sha256"] = dict(pinned["d7"])
    cases["catalan_n6"]["whitney"] = [1, 2]
    assert script.main() == 1
    err = capsys.readouterr().err
    assert err == "time_stages.py catalan_n6: pipeline, mobius and whitney disagree\n"


def test_stages_of_the_projective_simplex():
    # P^2 less its three coordinate lines is (C*)^2; deconing leaves two crossing lines.
    case = _time_stages().stages("projective 2\n1 0 0\n0 1 0\n0 0 1\n", sweep=True)
    stages = ("parse", "chart", "essentialize", "count_flats", "pages", "general_position",
              "poset", "mobius", "whitney")
    times = {key: value for key, value in case.items() if key.endswith("_s")}
    assert set(times) == {f"{stage}_s" for stage in stages}
    assert all(isinstance(t, float) and t >= 0 for t in times.values())
    assert case["betti"] == case["mobius"] == case["whitney"] == [1, 2, 1]
    assert (case["r"], case["flats"], case["general_position"]) == (3, 4, True)
    assert set(case["sha256"]) == {"count_flats", "poset"}
