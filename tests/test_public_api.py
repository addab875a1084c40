"""Public API hygiene: every exported name resolves once, and the scalar
per-point API stays deleted in favour of the batched functions."""
import importlib
import pkgutil

import stratachern

#: Removed with the scalar path, by the module that defined each of them.
REMOVED = {
    "model": ("DVector", "BlochState", "d_vector", "d_derivatives", "valence_state"),
    "mesh": ("link_variable",),
    "geometry": ("qgt", "qfi", "eta_value", "concurrence", "coherence_gradient",
                 "filtered_qgt", "QgtSample", "sign_operator_matrix"),
    "witness": ("weight_alpha",),
    "multiorbital": ("embed_state", "MultiState", "multi_witness_expectation", "hecke_pairing"),
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
