"""Versioned on-disk cache of tuned mappings (best-per-shape winners).

The search (:mod:`repro.autotune.search`) pays its cost once per
``(kernel shape, hardware configuration)`` pair; every later
``schedule`` / ``simulate`` / ``repro tune`` run looks the winner up
here instead of re-searching -- the ZK-Flex-style "tune once, serve
many" loop the ROADMAP calls for.

Two consultation modes, deliberately different in strictness:

* **explicit load** (``TuningCache.load(path)``) raises
  :class:`TuningCacheError` on a corrupt file and returns an *empty*
  cache on a version mismatch (old entries are stale by definition);
* **default consult** (:func:`load_default_cache`, what the compiler
  does on every ``schedule``) never raises -- a missing, corrupt or
  mismatched file silently degrades to the static default mappings.

The default location honours the ``REPRO_TUNING_CACHE`` environment
variable so tests and CI can isolate their cache files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional

from ..hw.config import HwConfig
from ..mapping.params import DEFAULT_MAPPING, MappingParams

#: Cache-format version; bump when the entry schema changes.  Files
#: written before the software tuning plane was retired may still hold
#: entries under a ``"software"`` hardware key; no lookup reaches them.
CACHE_VERSION = 2

#: Environment variable overriding the default cache path.
CACHE_ENV_VAR = "REPRO_TUNING_CACHE"


class TuningCacheError(ValueError):
    """A tuning-cache file could not be parsed (explicit loads only)."""


def hw_key(hw: HwConfig) -> str:
    """Stable short key of one hardware configuration."""
    blob = json.dumps(asdict(hw), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def node_key(node) -> Optional[str]:
    """Cache key of one computation-graph node's mapping decision.

    Keys are shape-level, not instance-level: every ``ntt`` of one size
    shares a winner regardless of which workload or stage it appears
    in.  Returns ``None`` for kinds with no mapping knobs.
    """
    p = node.params
    if node.kind in ("ntt", "intt"):
        return f"ntt/log{int(p['log_n'])}"
    if node.kind == "lde":
        return f"lde/log{int(p['log_n'])}+r{int(p['rate_bits'])}"
    if node.kind == "merkle":
        return f"merkle/l{int(p['leaves'])}/w{int(p['width'])}"
    if node.kind == "hash_misc":
        return "poseidon/w12"
    if node.kind == "poly_elementwise":
        return (
            f"polyew/len{int(p['vector_len'])}"
            f"/ops{int(p['num_ops'])}/opr{int(p['num_operands'])}"
        )
    return None


class TuningCache:
    """In-memory view of the tuned-winner store, with JSON persistence."""

    def __init__(
        self,
        path: Optional[Path] = None,
        entries: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, Dict[str, Any]] = dict(entries or {})

    # -- persistence ----------------------------------------------------------

    @classmethod
    def load(cls, path, strict: bool = True) -> "TuningCache":
        """Read a cache file.

        ``strict`` raises :class:`TuningCacheError` on unreadable or
        malformed files; non-strict returns an empty cache instead.  A
        version mismatch yields an empty cache either way -- stale
        winners must never steer the compiler.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return cls(path=path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            if strict:
                raise TuningCacheError(
                    f"tuning cache {path} is unreadable: {exc}"
                ) from exc
            return cls(path=path)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), dict
        ):
            if strict:
                raise TuningCacheError(
                    f"tuning cache {path} has no entries mapping"
                )
            return cls(path=path)
        if payload.get("version") != CACHE_VERSION:
            return cls(path=path)
        return cls(path=path, entries=payload["entries"])

    def save(self, path=None) -> Path:
        """Write the cache (atomically: temp file + rename)."""
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ValueError("no cache path to save to")
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": CACHE_VERSION, "entries": self.entries}
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        self.path = path
        return path

    # -- entry access ---------------------------------------------------------

    @staticmethod
    def _entry_key(key: str, hardware: str) -> str:
        return f"{key}@{hardware}"

    def lookup(self, key: str, hardware: str) -> Optional[Dict[str, Any]]:
        """The stored winner for ``key`` on ``hardware``, or ``None``."""
        return self.entries.get(self._entry_key(key, hardware))

    def store(
        self,
        key: str,
        hardware: str,
        params: Dict[str, Any],
        cycles: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a winner (overwrites any previous entry for the key)."""
        entry: Dict[str, Any] = {"params": dict(params)}
        if cycles is not None:
            entry["cycles"] = float(cycles)
        if meta:
            entry["meta"] = dict(meta)
        self.entries[self._entry_key(key, hardware)] = entry

    def __len__(self) -> int:
        return len(self.entries)


def default_cache_path() -> Path:
    """Where the compiler looks for tuned winners by default."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "tuning.json"


_DEFAULT_CACHE: Dict[Path, tuple] = {}


def load_default_cache() -> TuningCache:
    """The default cache, reloaded only when the file changes on disk.

    Never raises: this sits on the ``schedule``/``simulate`` hot path,
    where a broken cache file must degrade to default mappings, not
    break compilation.
    """
    path = default_cache_path()
    try:
        stat = path.stat()
        stamp = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        stamp = None
    cached = _DEFAULT_CACHE.get(path)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    cache = TuningCache.load(path, strict=False)
    _DEFAULT_CACHE[path] = (stamp, cache)
    return cache


class MappingResolver:
    """Per-node mapping lookup the compiler backend consults.

    Resolution order per node: tuned winner from the cache (validated
    against the hardware point) -> :data:`DEFAULT_MAPPING`.  Lookups are
    memoised per shape key, so resolving a thousand-node graph costs a
    handful of cache reads.
    """

    def __init__(self, hw: HwConfig, cache: Optional[TuningCache] = None) -> None:
        self.hw = hw
        self.hw_key = hw_key(hw)
        self._cache = cache
        self._memo: Dict[Optional[str], MappingParams] = {None: DEFAULT_MAPPING}

    def _cache_obj(self) -> TuningCache:
        if self._cache is None:
            self._cache = load_default_cache()
        return self._cache

    def for_node(self, node) -> MappingParams:
        """The mapping parameters to cost ``node`` with."""
        key = node_key(node)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        entry = self._cache_obj().lookup(key, self.hw_key)
        mapping = DEFAULT_MAPPING
        if entry is not None:
            try:
                candidate = MappingParams.from_dict(entry.get("params", {}))
                if not candidate.invalid_reasons(self.hw):
                    mapping = candidate
            except (TypeError, ValueError):
                mapping = DEFAULT_MAPPING
        self._memo[key] = mapping
        return mapping
