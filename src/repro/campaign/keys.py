"""Content-addressing for jobs: spec -> stable hexadecimal key.

The key is a SHA-256 over the *canonical* JSON form of the job spec plus
a code-version salt.  Two processes (or two machines) building the same
``Job`` always derive the same key; any change to any field — a machine
width, an IRB port count, a fault's target — changes it.  Bump
:data:`CODE_VERSION` whenever a timing model's behaviour changes, so
stale store entries are never replayed against new semantics.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any, Dict, Tuple

from .jobs import Job

#: Salt mixed into every key.  Bump on any change that alters simulated
#: statistics for an identical spec (pipeline timing, workload
#: generation, stat semantics) — the store then misses cleanly instead of
#: serving results computed by older code.
CODE_VERSION = "campaign-v3"


#: Types :func:`canonical` returns as they are.  The match is on the exact
#: type, so an ``IntEnum`` (an ``int`` subclass) still becomes its name.
_SCALARS = frozenset((type(None), bool, int, float, str))

#: Field names of each dataclass type met so far, in declaration order.
#: Bounded by the number of dataclass types, not by the values hashed.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-able structure.

    Dataclasses become ``{"__type__": name, **fields}`` (the type tag
    distinguishes e.g. a default ``MachineConfig`` from a default
    ``IRBConfig``), enums become their names, tuples become lists.

    Dispatch is on ``type(value)``: scalars return at once and a
    dataclass type's field names are looked up once per process.
    Nothing is cached per *value*: ``Job(seed=1) == Job(seed=1.0)`` and
    both hash alike, yet their specs differ (``1`` against ``1.0``), so
    a value memo would make a key depend on which spelling a process
    met first.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(cls):
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    if names is not None:
        out = {"__type__": cls.__name__}
        for name in names:
            out[name] = canonical(getattr(value, name))
        return out
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {cls.__name__} for content hashing")


def job_spec(job: Job) -> dict:
    """The canonical spec dict hashed into the key (also stored as provenance)."""
    spec = canonical(job)
    # A full (unsampled) run's spec omits the sampling field entirely, so
    # keys minted before the field existed keep resolving; any non-None
    # plan is hashed in full, so a sampled result can never collide with
    # a full run or with a differently-parameterized sampled run.
    if spec.get("sampling") is None:
        spec.pop("sampling", None)
    spec["__code_version__"] = CODE_VERSION
    return spec


def job_key(job: Job) -> str:
    """Stable content hash of ``job`` under the current :data:`CODE_VERSION`."""
    payload = json.dumps(job_spec(job), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- spec inverse ----------------------------------------------------------
#
# `repro serve` resolves POSTed job specs back into Job objects
# (`/job` -> key lookup), so `canonical()` needs an inverse.  Every type
# that can appear inside a job spec is registered here by the `__type__`
# tag `canonical()` emits; enums never appear in specs (`Job` holds none
# at the top level and nested configs store plain scalars), so reversing
# dataclasses, lists and scalars is complete.


@functools.lru_cache(maxsize=None)
def _spec_types() -> dict:
    """Spec types by ``__type__`` tag; built on first use (the imports
    would be circular at module load), then shared."""
    from ..memory.cache import CacheConfig
    from ..memory.dram import DRAMConfig
    from ..memory.hierarchy import HierarchyConfig
    from ..core import MachineConfig
    from ..redundancy import Fault
    from ..reuse import IRBConfig
    from ..sampling.plan import SamplingPlan

    return {
        t.__name__: t
        for t in (
            Job,
            MachineConfig,
            HierarchyConfig,
            CacheConfig,
            DRAMConfig,
            IRBConfig,
            SamplingPlan,
            Fault,
        )
    }


def from_canonical(value: Any) -> Any:
    """Invert :func:`canonical`: rebuild dataclasses from tagged dicts.

    Raises :class:`ValueError` on unknown ``__type__`` tags or field
    mismatches, so a malformed spec fails loudly instead of minting a
    wrong key.
    """
    if isinstance(value, dict):
        if "__type__" not in value:
            return {k: from_canonical(v) for k, v in value.items()}
        tag = value["__type__"]
        cls = _spec_types().get(tag)
        if cls is None:
            raise ValueError(f"unknown spec type {tag!r}")
        declared = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for name, raw in value.items():
            if name == "__type__":
                continue
            if name not in declared:
                raise ValueError(f"{tag} has no field {name!r}")
            field_value = from_canonical(raw)
            # canonical() turned tuples into lists; frozen dataclasses
            # declare tuple fields (Job.faults), so coerce back.
            if isinstance(field_value, list) and "Tuple" in str(declared[name].type):
                field_value = tuple(field_value)
            kwargs[name] = field_value
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise ValueError(f"cannot rebuild {tag}: {error}") from None
    if isinstance(value, list):
        return [from_canonical(item) for item in value]
    return value


def job_from_spec(spec: dict) -> Job:
    """Rebuild the :class:`Job` a stored/POSTed spec describes.

    Accepts both full spec documents (with ``__code_version__``) and
    bare canonical job dicts; the round trip ``job_from_spec(job_spec(j))``
    reproduces ``j`` exactly, hence the same content key.
    """
    payload = {k: v for k, v in spec.items() if k != "__code_version__"}
    payload.setdefault("__type__", "Job")
    if payload["__type__"] != "Job":
        raise ValueError(f"spec is a {payload['__type__']!r}, not a Job")
    job = from_canonical(payload)
    assert isinstance(job, Job)
    return job
