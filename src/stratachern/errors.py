"""Exception hierarchy shared by the whole package.

Every error carries an ``exit_code`` so the CLI can map failures onto its
contract: 2 = configuration/argument validation, 3 = a numerical contract
was violated (non-integer flux total, degenerate overlap, failed bound, ...),
4 = the spectrum is gapless or the parameters sit on a phase wall.
"""
import math
import numbers
import operator

import numpy as np

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_GAPLESS = 4


class StrataChernError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_NUMERICAL


# --- validation family (exit code 2) ---------------------------------------

class ParseError(StrataChernError):
    """Config file is not well-formed JSON."""

    exit_code = EXIT_VALIDATION


class ValidationError(StrataChernError):
    """A constraint on a config field or argument is violated.

    The message names the offending field (e.g. ``mesh.nx``).
    """

    exit_code = EXIT_VALIDATION


def _shown(value) -> str:
    """A rejected value for a one-line message: its repr if it is a number, else its type's name."""
    return repr(value) if isinstance(value, numbers.Number) else type(value).__name__


def _integer(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValidationError naming ``name`` unless it is an integer
    (numpy integers too, bool not) of at least ``minimum``."""
    try:
        number = operator.index(value) if not isinstance(value, bool) else None
    except TypeError:
        number = None
    if number is None:
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {number}")
    return number


def _real(value, name: str, scalar: bool = True):
    """``value`` as a float if ``scalar``, else as a float array; ValidationError naming ``name`` unless
    it converts to finite real numbers (numpy scalars and 0-d arrays too) and, if ``scalar``, to one.
    Text, complex values, None and a bool are refused, also in lists and tuples at any depth,
    where numpy would upcast a bool to 1.0."""
    if scalar and type(value) is float and math.isfinite(value):
        return value
    try:
        t = np.asarray(value, dtype=object if isinstance(value, (list, tuple)) else None)
        # a dtype test; only an object array (a list or tuple, or integers beyond int64) is read element by element
        if t.dtype.kind not in "iuf" and not (
                t.dtype.kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in t.flat)):
            raise TypeError
        t = t.astype(float, copy=False)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    except (TypeError, ValueError):     # also a ragged sequence
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}") from None
    if scalar and t.ndim:
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__} of shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValidationError(f"{name} must be finite, got {t[~np.isfinite(t)].flat[0]}")
    return float(t) if scalar else t


class NonUnitProbe(StrataChernError):
    """A probe vector that must be unit-norm is not."""

    exit_code = EXIT_VALIDATION


class MissingProbe(StrataChernError):
    """A basis-probe response required for reconstruction is absent."""

    exit_code = EXIT_VALIDATION


# --- numerical-contract family (exit code 3) --------------------------------

class DegenerateOverlap(StrataChernError):
    """Link-variable overlap modulus below the floor; mesh too coarse."""


class NonIntegerTotal(StrataChernError):
    """Total lattice flux / 2pi deviates from an integer beyond tolerance."""


class MeshTooCoarse(StrataChernError):
    """The lattice Chern number of a model's mesh differs from its Dirac-mass count."""


class DegeneratePhase(StrataChernError):
    """Mesh-averaged coherence too small to define a reference phase."""


class NotPartialIsometry(StrataChernError):
    """A sign-operator block has a singular value away from {0, 1}."""


class ViolationFound(StrataChernError):
    """A sampled inequality bound failed; indicates an implementation bug."""


# --- gapless / wall family (exit code 4) ------------------------------------

class GaplessPoint(StrataChernError):
    """The spectral gap vanishes at a single k-point."""

    exit_code = EXIT_GAPLESS


class GaplessMesh(StrataChernError):
    """At least one mesh point is gapless; the mesh cannot be built."""

    exit_code = EXIT_GAPLESS


class OnWall(StrataChernError):
    """Parameters sit on a gap-closing wall; the invariant is undefined."""

    exit_code = EXIT_GAPLESS
