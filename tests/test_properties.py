"""Property checks of the geometry engine against the independent oracle.

Hypothesis draws model couplings away from the phase walls, then a k-point and
a witness phase, and compares ``qgt_sample_arrays`` with the oracle's central
differences of the band projector (``tests/oracles/oracle_reference.py``),
which uses eigh states and the trace identities, not the closed forms.
"""
import importlib.util
import math
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratachern import ModelParams, dirac_masses, qgt_sample_arrays

_spec = importlib.util.spec_from_file_location(
    "oracle_reference", Path(__file__).parent / "oracles" / "oracle_reference.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

#: Both Dirac masses stay at least this far from 0, which bounds |d| below
#: (d vanishes only at the Dirac points) and so the projector's derivatives.
MIN_MASS = 0.2
#: Central differences with h = 1e-5 carry an O(h^2) truncation error; the
#: worst of the draws below is about 1.5e-10.
FD_TOL = 1e-8

_angle = st.floats(-math.pi, math.pi)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    t1=st.floats(0.5, 1.5),
    t2=st.floats(0.0, 0.5),
    phi=_angle,
    M=st.floats(-3.0, 3.0),
    k=st.tuples(st.floats(-2.0 * math.pi, 2.0 * math.pi), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    theta=_angle,
)
def test_qgt_sample_arrays_matches_projector_differences(t1, t2, phi, M, k, theta):
    p = ModelParams(t1, t2, phi, M)
    assume(min(abs(m) for m in dirac_masses(p)) >= MIN_MASS)
    arr = qgt_sample_arrays([k], p, theta)
    g, fxy, qs, eta, coherence = oracle.filtered_qgt_fd(k, t1, t2, phi, M, theta)

    np.testing.assert_allclose(arr.g[0], g, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.Fxy[0], fxy, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.QS[0], qs, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.eta[0], eta, rtol=0.0, atol=FD_TOL)
    np.testing.assert_allclose(arr.coherence[0], coherence, rtol=0.0, atol=FD_TOL)
    assert arr.dual_dev[0] <= 1e-10
