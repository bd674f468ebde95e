import json
import math

import pytest

from frwave import AnalysisReport, InputError, RunConfig, Verdict, dumps_deterministic


def test_dumps_deterministic_properties():
    doc = {"b": 1.0 / 3.0, "a": complex(1.5, -2.5), "nested": {"z": 2, "y": [0.1]}}
    s1 = dumps_deterministic(doc)
    s2 = dumps_deterministic(dict(reversed(list(doc.items()))))
    assert s1 == s2
    assert s1.endswith("\n") and "\r" not in s1
    assert "0.33333333333333331" in s1            # 17 significant digits
    assert '"im": -2.5' in s1 and '"re": 1.5' in s1
    parsed = json.loads(s1)
    assert parsed["nested"]["y"] == [0.1]


def test_dumps_nonfinite_as_strings():
    s = dumps_deterministic({"p": math.inf, "n": -math.inf, "x": math.nan})
    doc = json.loads(s)
    assert doc == {"p": "Infinity", "n": "-Infinity", "x": "NaN"}


def test_runconfig_roundtrip_and_overrides():
    cfg = RunConfig(alpha=math.pi / 3)
    back = RunConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert cfg.tol("matrix") == 1e-6
    d = cfg.to_dict()
    d["tolerances"]["matrix"] = 1e-3
    assert RunConfig.from_dict(d).tol("matrix") == 1e-3
    # absent keys and tolerances keep the defaults
    assert RunConfig.from_dict({"alpha": 1.0}) == RunConfig(alpha=1.0)


def test_runconfig_validation():
    with pytest.raises(InputError):
        RunConfig(alpha=1.0, tolerances={"biortho": 0.0})
    with pytest.raises(InputError):
        RunConfig.from_dict({})
    # names the pipeline does not read are refused, not carried along
    with pytest.raises(InputError, match="span"):
        RunConfig(alpha=1.0, tolerances={"span": 1e-3})
    with pytest.raises(InputError, match="grid"):
        RunConfig.from_dict({"alpha": 1.0, "grid": {"t0": -1.0, "dt": 0.5, "n": 16}})


def test_analysis_report_verdicts():
    rep = AnalysisReport("demo", RunConfig(alpha=1.0))
    rep.add("one", True, 0.5)
    rep.add("two", False, 2.0, "boom")
    assert not rep.overall_pass
    with pytest.raises(ValueError):
        rep.add("one", True, 0.0)
    doc = rep.to_dict()
    assert doc["pass"] is False
    assert doc["verdicts"]["two"] == {"pass": False, "value": 2.0, "detail": "boom"}
    assert "timings" not in doc
    rep.timings["total"] = 1.23
    assert "timings" in rep.to_dict(include_timings=True)


def test_verdict_is_frozen():
    v = Verdict(True, 1.0)
    with pytest.raises(Exception):
        v.passed = False
