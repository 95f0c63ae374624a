"""Mapping autotuner: enumerate -> sanitize -> score -> cache.

Closes the compiler loop the paper leaves manual: candidate mappings
for each kernel family are enumerated (:mod:`repro.autotune.space`),
cheaply rejected by the PE-grid sanitizer where microcode is involved,
scored on the cycle-accurate simulator (:mod:`repro.autotune.search`),
and the best-per-``(kernel shape, hardware)`` winners are persisted in
a versioned :class:`~repro.autotune.cache.TuningCache` that
``schedule``/``simulate`` consult by default.  This is the
hardware-mapping tuner only: the software prover has no tuning plane and
never reads the cache.

Submodules are imported lazily: the compiler backend imports
``repro.autotune.cache`` on its hot path, while ``search`` imports the
compiler back -- eager re-exports here would create an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "CACHE_VERSION": ".cache",
    "CACHE_ENV_VAR": ".cache",
    "TuningCache": ".cache",
    "TuningCacheError": ".cache",
    "MappingResolver": ".cache",
    "default_cache_path": ".cache",
    "load_default_cache": ".cache",
    "hw_key": ".cache",
    "node_key": ".cache",
    "Candidate": ".space",
    "candidate_spaces": ".space",
    "space_for_family": ".space",
    "TuneReport": ".search",
    "tune_workload": ".search",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
