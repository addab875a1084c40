"""Public API hygiene: every exported name resolves once and has a caller
outside the tests, the scalar per-point API and the names that did no
library work stay deleted, no public callable takes a guard tolerance, and
every real-valued input is read by one rule."""
import dataclasses
import importlib
import inspect
import math
import pathlib
import pkgutil
import re

import pytest

import stratachern
from stratachern import (
    ModelParams,
    ValidationError,
    WitnessSpec,
    config_from_dict,
    qgt_sample_arrays,
    sector_responses,
    theta_scan,
)

#: Removed with the scalar path and the spinor gauge, or because they did no library work
#: (a unitarity check of a matrix identity, its error, a wrapper of RunConfig(), unread
#: Bravais vectors, the worker count of a sweep pool the product no longer starts, two
#: Riemann estimates and their cell area that only tests read), by the module that defined
#: each of them.
REMOVED = {
    "model": ("DVector", "BlochState", "d_vector", "d_derivatives", "valence_state",
              "valence_amplitudes", "BRAVAIS", "CELL_AREA"),
    "errors": ("NonUnitary",),
    "config": ("default_config",),
    "mesh": ("link_variable", "_normalized_links"),
    "geometry": ("qgt", "qfi", "eta_value", "concurrence", "coherence_gradient",
                 "filtered_qgt", "QgtSample", "sign_operator_matrix", "curvature_riemann_total",
                 "filtered_chern_from_qgt"),
    "witness": ("weight_alpha",),
    "multiorbital": ("embed_state", "MultiState", "multi_witness_expectation", "hecke_pairing",
                     "CoherenceMatrix", "unitary_invariance_check"),
    "harness": ("run_panel", "thread_cap"),
}


def test_all_names_resolve_once():
    names = stratachern.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stratachern, name)]
    assert missing == []


def test_removed_names_are_not_importable():
    modules = [stratachern] + [
        importlib.import_module(f"stratachern.{info.name}")
        for info in pkgutil.iter_modules(stratachern.__path__)
    ]
    removed = [name for names in REMOVED.values() for name in names]
    found = [(m.__name__, name) for m in modules for name in removed if hasattr(m, name)]
    assert found == []
    # the product sweep runs serially: no module sizes a thread pool for it
    assert [m.__name__ for m in modules if hasattr(m, "thread_cap")] == []
    assert not hasattr(stratachern.TorusMesh, "state")
    # the mesh holds the projector, not a spinor gauge
    assert not hasattr(stratachern.TorusMesh, "rephased")
    assert {"vA", "vB"}.isdisjoint(f.name for f in dataclasses.fields(stratachern.TorusMesh))
    # (nx, ny) fixes the k-grid: mesh_kpoints builds it, the mesh does not hold it
    assert "kpoints" not in {f.name for f in dataclasses.fields(stratachern.TorusMesh)}


def test_every_public_name_has_a_caller_outside_tests():
    # the rule of CI's "Library size" step: a mention in src/ (not __init__.py) or
    # perfbench/ outside the name's own def, class or assignment line; a demo only shows a name
    root = pathlib.Path(__file__).resolve().parents[1]
    text = "\n".join(p.read_text() for d in ("src", "perfbench")
                     for p in sorted((root / d).rglob("*.py")) if p.name != "__init__.py")
    unused = {n for n in stratachern.__all__
              if not re.search(rf"^(?!\s*(def|class) {n}\b|\s*{n}\s*[:=]).*\b{n}\b", text, re.M)}
    assert unused == set()


#: Guard tolerances are module constants, read at call time; no caller may pass one.
GUARD_KEYWORDS = {"gap_floor", "overlap_floor", "integer_tol", "wall_tol", "slack", "tol"}


def test_no_callable_takes_a_guard_tolerance():
    callables = [getattr(stratachern, name) for name in stratachern.__all__]
    callables.append(importlib.import_module("stratachern.model").bloch_vector_fields)
    found = []
    for fn in filter(callable, callables):
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtin exception constructors have no signature
            continue
        found += [(fn.__name__, name) for name in params if name in GUARD_KEYWORDS]
    assert found == []


_P = dict(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.5)
_PROBE = "multi.probes[0].x[0]"


def _probe_doc(v):
    return {"multi": {"probes": [[[[v, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}}


#: Every entry point that reads a real number: (id, the name its refusal starts with, call(v, mesh, F)).
READERS = [
    *((f"ModelParams.{f}", f"ModelParams.{f}", lambda v, m, F, f=f: ModelParams(**{**_P, f: v})) for f in _P),
    ("WitnessSpec", "witness theta", lambda v, m, F: WitnessSpec(theta=v)),
    ("sector_responses", "witness theta", lambda v, m, F: sector_responses(m, F, v)),
    ("theta_scan", "witness theta", lambda v, m, F: theta_scan(m, F, [0.0, v])),
    ("qgt-k", "k", lambda v, m, F: qgt_sample_arrays([[v, 0.7]], m.params, 0.1)),
    ("qgt-theta", "witness theta", lambda v, m, F: qgt_sample_arrays([[0.3, 0.7]], m.params, v)),
    ("qgt-direction", "direction", lambda v, m, F: qgt_sample_arrays([[0.3, 0.7]], m.params, 0.1, (v, 0.0))),
    *((f"config-{key}", key, lambda v, m, F, key=key: config_from_dict({key.split(".")[0]: {key.split(".")[1]: v}}))
      for key in ("model.M", "sweep.m_min", "witness.theta")),
    ("config-probe", _PROBE, lambda v, m, F: config_from_dict(_probe_doc(v))),
]


@pytest.mark.parametrize("bad, problem", [
    (True, "a real number"), ("1", "a real number"), (1j, "a real number"), (None, "a real number"),
    (math.nan, "finite"), (math.inf, "finite"), (10**400, "finite"),
], ids=["bool", "text", "complex", "none", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("name, call", [r[1:] for r in READERS], ids=[r[0] for r in READERS])
def test_every_real_input_is_read_by_one_rule(mesh48_half, curv48_half, name, call, bad, problem):
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be {problem}") as excinfo:
        call(bad, mesh48_half, curv48_half)
    assert excinfo.value.exit_code == 2
