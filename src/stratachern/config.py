"""Run configuration: a strict JSON schema with defaults and canonical dump.

The configuration document is plain JSON with five optional sections plus an
output directory.  The dataclasses below are the schema: each field's name,
default and lower bound (``metadata["minimum"]``) are stated there once, and
`config_from_dict` reads them from ``dataclasses.fields``.  Unknown keys
anywhere are rejected (naming the offending ``section.key``), numbers are
type-checked (booleans are not numbers) and bounds are enforced at parse time,
so every downstream routine can trust its inputs.  ``canonical_dict`` emits a
normalized document that reparses to an equal configuration, which keeps run
manifests byte-reproducible.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ParseError, ValidationError, _integer
from .model import ModelParams


@dataclass(frozen=True)
class MeshSpec:
    nx: int = field(default=48, metadata={"minimum": 4})
    # square by default: ny shares nx's default and bound
    ny: int = field(default=nx.default, metadata=nx.metadata)


@dataclass(frozen=True)
class WitnessConfig:
    #: A phase in radians, or the string "auto" to use the mesh-mean phase.
    theta: float | str = "auto"


@dataclass(frozen=True)
class MultiConfig:
    m: int = field(default=2, metadata={"minimum": 1})
    n: int = field(default=m.default, metadata=m.metadata)
    #: Probe embedding pairs ((x, y), ...) with x in C^m, y in C^n, stored as
    #: tuples of complex numbers.  Empty means "use seeded defaults".
    probes: tuple = ()


@dataclass(frozen=True)
class SweepConfig:
    m_min: float = -3.0
    m_max: float = 3.0
    steps: int = field(default=25, metadata={"minimum": 2})

    def values(self) -> np.ndarray:
        return np.linspace(self.m_min, self.m_max, self.steps)


@dataclass(frozen=True)
class QfiScanConfig:
    samples: int = field(default=10000, metadata={"minimum": 1})
    seed: int = field(default=42, metadata={"minimum": 0})


def _default_model() -> ModelParams:
    # Artifact default: unit first-neighbour hopping, t2 = 1/3, phi = pi/2
    # (walls at M = +/- sqrt(3)), M = 0.
    return ModelParams(t1=1.0, t2=1.0 / 3.0, phi=math.pi / 2.0, M=0.0)


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=_default_model)
    mesh: MeshSpec = field(default_factory=MeshSpec)
    witness: WitnessConfig = field(default_factory=WitnessConfig)
    multi: MultiConfig = field(default_factory=MultiConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    qfi_scan: QfiScanConfig = field(default_factory=QfiScanConfig)
    output_dir: str = "out"


def default_config() -> RunConfig:
    return RunConfig()


# ---------------------------------------------------------------------------
# Strict field readers.
# ---------------------------------------------------------------------------

def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"unknown key {where}.{key}" if where else f"unknown key {key}")


def _number(value, key: str, kind: str = "a number") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be {kind}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"{key} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite")
    return value


def _complex_entry(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{where} must be a [re, im] pair of numbers")
    return complex(*(_number(v, where, "a [re, im] pair of numbers") for v in value))


def _probe_vector(value, length: int, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValidationError(f"{where} must be a list of {length} [re, im] pairs")
    return tuple(_complex_entry(v, f"{where}[{i}]") for i, v in enumerate(value))


def _parse_probes(value, m: int, n: int, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) > 1:  # a second pair would never be used
        raise ValidationError(f"{where} must be a list of at most one [x, y] pair")
    probes = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValidationError(f"{where}[{i}] must be an [x, y] pair")
        probes.append(
            (
                _probe_vector(pair[0], m, f"{where}[{i}].x"),
                _probe_vector(pair[1], n, f"{where}[{i}].y"),
            )
        )
    return tuple(probes)


def _section(doc, default, where: str):
    """Parse one section against the fields of its default instance.

    Integer fields (integer default) are checked against their
    ``metadata["minimum"]``, float fields for finiteness; ``witness.theta``,
    ``multi.probes`` and ``model.t2`` have formats of their own.
    """
    doc = _require_mapping(doc, where)
    _reject_unknown(doc, [f.name for f in fields(default)], where)
    values = {}
    for f in fields(default):
        key = f"{where}.{f.name}"
        fallback = getattr(default, f.name)
        value = doc.get(f.name, fallback)
        if key == "witness.theta":
            value = value if value == "auto" else _number(value, key, 'a number or "auto"')
        elif key == "multi.probes":
            value = _parse_probes(value, values["m"], values["n"], key)
        elif isinstance(fallback, int):
            value = _integer(value, key, f.metadata["minimum"])
        else:
            value = _number(value, key)
            if key == "model.t2" and value < 0.0:
                raise ValidationError(f"model.t2 must be >= 0, got {value}")
        values[f.name] = value
    return type(default)(**values)


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    doc = _require_mapping(doc, "config")
    base = RunConfig()
    _reject_unknown(doc, [f.name for f in fields(base)], "")
    sections = {
        f.name: _section(doc.get(f.name, {}), getattr(base, f.name), f.name)
        for f in fields(base)
        if f.name != "output_dir"
    }
    limit = np.iinfo(np.intp).max  # the platform's array-index bound, not a setting
    if sections["mesh"].nx * sections["mesh"].ny > limit:
        raise ValidationError(f"mesh.nx * mesh.ny must be <= {limit}, the largest array index")
    output_dir = doc.get("output_dir", base.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ValidationError("output_dir must be a non-empty string")
    return RunConfig(output_dir=output_dir, **sections)


def load_config(path) -> RunConfig:
    """Parse a JSON config file.  Raises ParseError for an unreadable file or
    content that is not JSON in UTF-8, and ValidationError for schema
    problems."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and integers over Python's
        # digit limit are all ValueErrors raised while reading the document
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def canonical_dict(cfg: RunConfig) -> dict:
    """Normalized plain-JSON form; config_from_dict(canonical_dict(c)) == c."""
    doc = asdict(cfg)
    doc["multi"]["probes"] = [
        [[[z.real, z.imag] for z in vec] for vec in pair] for pair in cfg.multi.probes
    ]
    return doc


def with_overrides(cfg: RunConfig, *, mesh=None, seed=None, output_dir=None) -> RunConfig:
    """Apply command-line style overrides on top of a parsed configuration.

    The overrides go through `config_from_dict`, so they are checked and
    named (``mesh.nx``, ``qfi_scan.seed``, ``output_dir``) like file fields.
    """
    doc = canonical_dict(cfg)
    if mesh is not None:
        doc["mesh"] = {"nx": mesh[0], "ny": mesh[1]}
    if seed is not None:
        doc["qfi_scan"]["seed"] = seed
    if output_dir is not None:
        doc["output_dir"] = output_dir
    return config_from_dict(doc)
