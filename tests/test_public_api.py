"""Public API hygiene: every exported name resolves once, the scalar
per-point API stays deleted in favour of the batched functions, and no
public callable takes a guard tolerance."""
import dataclasses
import importlib
import inspect
import pkgutil

import stratachern

#: Removed with the scalar path and the spinor gauge, by the module that defined each of them.
REMOVED = {
    "model": ("DVector", "BlochState", "d_vector", "d_derivatives", "valence_state",
              "valence_amplitudes"),
    "mesh": ("link_variable", "_normalized_links"),
    "geometry": ("qgt", "qfi", "eta_value", "concurrence", "coherence_gradient",
                 "filtered_qgt", "QgtSample", "sign_operator_matrix"),
    "witness": ("weight_alpha",),
    "multiorbital": ("embed_state", "MultiState", "multi_witness_expectation", "hecke_pairing",
                     "CoherenceMatrix"),
    "harness": ("run_panel",),
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
    assert not hasattr(stratachern.TorusMesh, "state")
    # the mesh holds the projector, not a spinor gauge
    assert not hasattr(stratachern.TorusMesh, "rephased")
    assert {"vA", "vB"}.isdisjoint(f.name for f in dataclasses.fields(stratachern.TorusMesh))
    # (nx, ny) fixes the k-grid: mesh_kpoints builds it, the mesh does not hold it
    assert "kpoints" not in {f.name for f in dataclasses.fields(stratachern.TorusMesh)}


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
