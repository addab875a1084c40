"""Config schema: defaults, strict validation, JSON round-trip, overrides."""
import json
import math
import re

import numpy as np
import pytest

from stratachern import (
    ParseError,
    RunConfig,
    ValidationError,
    canonical_dict,
    config_from_dict,
    load_config,
)
from stratachern.config import with_overrides


def test_default_config():
    cfg = RunConfig()
    assert (cfg.model.t1, cfg.model.t2) == (1.0, 1.0 / 3.0)
    assert cfg.model.phi == math.pi / 2.0
    assert cfg.model.M == 0.0
    assert (cfg.mesh.nx, cfg.mesh.ny) == (48, 48)
    assert cfg.witness.theta == "auto"
    assert (cfg.multi.m, cfg.multi.n) == (2, 2)
    assert cfg.multi.probes == ()
    assert (cfg.sweep.m_min, cfg.sweep.m_max, cfg.sweep.steps) == (-3.0, 3.0, 25)
    assert (cfg.qfi_scan.samples, cfg.qfi_scan.seed) == (10000, 42)
    assert cfg.output_dir == "out"


def test_partial_sections_keep_defaults():
    cfg = config_from_dict({"model": {"M": 0.5}, "mesh": {"nx": 12, "ny": 12}})
    assert cfg.model.M == 0.5
    assert cfg.model.t1 == 1.0
    assert cfg.sweep.steps == 25


def test_sweep_values():
    cfg = config_from_dict({"sweep": {"m_min": -1.0, "m_max": 1.0, "steps": 5}})
    np.testing.assert_allclose(cfg.sweep.values(), np.linspace(-1.0, 1.0, 5))


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown key nope"):
        config_from_dict({"nope": 1})
    with pytest.raises(ValidationError, match="unknown key mesh.nz"):
        config_from_dict({"mesh": {"nz": 8}})


def test_field_validation_messages():
    with pytest.raises(ValidationError, match="mesh.nx must be >= 4, got 2"):
        config_from_dict({"mesh": {"nx": 2}})
    with pytest.raises(ValidationError, match="model.t2"):
        config_from_dict({"model": {"t2": -0.1}})
    with pytest.raises(ValidationError, match="sweep.steps"):
        config_from_dict({"sweep": {"steps": 1}})
    with pytest.raises(ValidationError, match="qfi_scan.seed"):
        config_from_dict({"qfi_scan": {"seed": -1}})


def test_type_strictness():
    # booleans are not numbers, integers must not arrive as floats,
    # and non-finite values are refused
    with pytest.raises(ValidationError):
        config_from_dict({"model": {"M": True}})
    with pytest.raises(ValidationError):
        config_from_dict({"mesh": {"nx": 12.5}})
    with pytest.raises(ValidationError):
        config_from_dict({"model": {"M": float("nan")}})
    with pytest.raises(ValidationError):
        config_from_dict({"witness": {"theta": "sideways"}})


_HUGE = 10**400  # a JSON integer that no float can hold


@pytest.mark.parametrize("doc, key", [
    ({"model": {"M": _HUGE}}, "model.M"),
    ({"model": {"t2": _HUGE}}, "model.t2"),
    ({"witness": {"theta": _HUGE}}, "witness.theta"),
    ({"sweep": {"m_min": -_HUGE}}, "sweep.m_min"),
    ({"sweep": {"m_max": _HUGE}}, "sweep.m_max"),
    ({"multi": {"probes": [[[[_HUGE, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}},
     "multi.probes[0].x[0]"),
])
def test_integer_too_large_for_a_float_is_refused(doc, key):
    with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must be finite") as excinfo:
        config_from_dict(doc)
    assert excinfo.value.exit_code == 2


def test_witness_theta_modes():
    assert config_from_dict({"witness": {"theta": "auto"}}).witness.theta == "auto"
    assert config_from_dict({"witness": {"theta": 0.4}}).witness.theta == 0.4


def test_probe_parsing():
    doc = {
        "multi": {
            "m": 2, "n": 2,
            "probes": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]],
        }
    }
    cfg = config_from_dict(doc)
    (x, y), = cfg.multi.probes
    assert x == (1.0 + 0.0j, 0.0 + 0.0j)
    assert y == (0.0 + 0.0j, 0.0 + 1.0j)


def test_probe_length_must_match_dims():
    doc = {"multi": {"m": 2, "n": 2,
                     "probes": [[[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}}
    with pytest.raises(ValidationError):
        config_from_dict(doc)


def test_probe_entry_must_be_one_pair():
    vec = [[1.0, 0.0], [0.0, 0.0]]
    doc = {"multi": {"m": 2, "n": 2, "probes": [[vec, vec, vec]]}}
    with pytest.raises(ValidationError, match=r"^multi\.probes\[0\] must be an \[x, y\] pair") as excinfo:
        config_from_dict(doc)
    assert excinfo.value.exit_code == 2


def test_more_than_one_probe_pair_is_refused():
    # the run uses one probe pair: a second would be neither used nor unit-checked
    pair = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]
    with pytest.raises(ValidationError, match=r"^multi\.probes must be a list of at most one \[x, y\] pair") as excinfo:
        config_from_dict({"multi": {"probes": [pair, pair]}})
    assert excinfo.value.exit_code == 2
    assert config_from_dict({"multi": {"probes": [pair]}}).multi.probes[0][1] == (1j, 0j)


def test_round_trip_through_canonical_dict():
    cfg = config_from_dict({
        "model": {"M": 0.5, "phi": 0.3},
        "mesh": {"nx": 12, "ny": 16},
        "witness": {"theta": 0.4},
        "multi": {"probes": [[[[1.0, 0.0], [0.0, 0.0]],
                              [[0.0, 1.0], [0.0, 0.0]]]]},
        "qfi_scan": {"samples": 100, "seed": 9},
        "output_dir": "elsewhere",
    })
    assert config_from_dict(canonical_dict(cfg)) == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"M": 2.5}}))
    assert load_config(str(path)).model.M == 2.5
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(bad))
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "absent.json"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"output_dir": "\xff"}')
    with pytest.raises(ParseError):
        load_config(str(latin1))


def test_with_overrides():
    cfg = RunConfig()
    out = with_overrides(cfg, mesh=(12, 16), seed=7, output_dir="x")
    assert (out.mesh.nx, out.mesh.ny) == (12, 16)
    assert out.qfi_scan.seed == 7
    assert out.output_dir == "x"
    # untouched fields survive
    assert out.model == cfg.model
    with pytest.raises(ValidationError, match="mesh.nx must be >= 4, got 3"):
        with_overrides(cfg, mesh=(3, 8))
    with pytest.raises(ValidationError, match="qfi_scan.seed must be >= 0, got -1"):
        with_overrides(cfg, seed=-1)
