"""Content-addressed result cache for sweep cells.

Every cell result is stored as one JSON file under ``.sweep-cache/``
(override with ``--cache-dir`` or ``REPRO_SWEEP_CACHE``).  The cache
key is the SHA-256 of the canonical JSON of::

    {"scenario": <name>, "params": <cell params>, "fingerprint": <code>}

where ``fingerprint`` is the source fingerprint of the ``repro``
package (:mod:`repro.core.fingerprint`): a re-run with unchanged code
and parameters resumes from cache; *any* source edit orphans every
stale entry.  Results are serialized canonically (sorted keys, fixed
separators), so a cached payload is byte-identical to a freshly
computed one — asserted in ``tests/sweep/test_cache.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.fingerprint import package_fingerprint

__all__ = ["canonical_dumps", "cell_key", "CacheEntry", "ResultCache",
           "default_cache_dir"]

_SCHEMA = 1


def default_cache_dir() -> str:
    return os.environ.get("REPRO_SWEEP_CACHE", ".sweep-cache")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, plain floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def cell_key(scenario: str, params: Dict[str, Any], fingerprint: str) -> str:
    blob = canonical_dumps(
        {"scenario": scenario, "params": params, "fingerprint": fingerprint}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    scenario: str
    params: Dict[str, Any]
    fingerprint: str
    key: str
    result: Any
    elapsed_s: float
    created_unix: float
    path: str = ""


class ResultCache:
    """JSON files keyed by ``<scenario>.<key-prefix>.json``.

    Writes are atomic (tempfile + rename), so a sweep killed mid-write
    never leaves a truncated entry for the next resume to trip on.
    """

    def __init__(self, root: Optional[str] = None,
                 fingerprint: Optional[str] = None):
        self.root = root if root is not None else default_cache_dir()
        self.fingerprint = fingerprint or package_fingerprint()

    # -- paths ---------------------------------------------------------

    def key_for(self, scenario: str, params: Dict[str, Any]) -> str:
        return cell_key(scenario, params, self.fingerprint)

    def path_for(self, scenario: str, params: Dict[str, Any]) -> str:
        key = self.key_for(scenario, params)
        return os.path.join(self.root, f"{scenario}.{key[:24]}.json")

    # -- read/write ----------------------------------------------------

    def get(self, scenario: str, params: Dict[str, Any]) -> Optional[CacheEntry]:
        entry = _read_entry(self.path_for(scenario, params))
        if entry is None or entry.key != self.key_for(scenario, params):
            return None  # missing, corrupt, prefix collision or stale rename
        return entry

    def put(self, scenario: str, params: Dict[str, Any], result: Any,
            elapsed_s: float = 0.0) -> CacheEntry:
        key = self.key_for(scenario, params)
        path = self.path_for(scenario, params)
        os.makedirs(self.root, exist_ok=True)
        doc = {
            "schema": _SCHEMA,
            "scenario": scenario,
            "params": params,
            "fingerprint": self.fingerprint,
            "key": key,
            "result": result,
            "elapsed_s": round(float(elapsed_s), 6),
            "created_unix": round(time.time(), 3),
        }
        # Canonical result serialization inside a readable envelope:
        # the "result" value is embedded exactly as canonical_dumps
        # renders it, so cached-vs-fresh comparisons are byte-level.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps(doc))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return CacheEntry(scenario=scenario, params=params,
                          fingerprint=self.fingerprint, key=key,
                          result=result, elapsed_s=elapsed_s,
                          created_unix=doc["created_unix"], path=path)

    # -- maintenance ---------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        """Every parseable entry on disk (any fingerprint)."""
        if not os.path.isdir(self.root):
            return
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            entry = _read_entry(os.path.join(self.root, name))
            if entry is not None:
                yield entry

    def clean(self, scenarios: Optional[List[str]] = None,
              stale_only: bool = False) -> int:
        """Delete entries; returns how many files went away.

        ``scenarios`` restricts by scenario name; ``stale_only`` keeps
        entries whose fingerprint matches the current code.
        """
        removed = 0
        for entry in list(self.entries()):
            if scenarios is not None and entry.scenario not in scenarios:
                continue
            if stale_only and entry.fingerprint == self.fingerprint:
                continue
            os.unlink(entry.path)
            removed += 1
        return removed


def _read_entry(path: str) -> Optional[CacheEntry]:
    """The entry in ``path``; None for a missing file, or one that is
    not UTF-8, not JSON (or too deep to parse), not an object of ours."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != _SCHEMA:
        return None
    return CacheEntry(
        scenario=doc.get("scenario", "?"), params=doc.get("params", {}),
        fingerprint=doc.get("fingerprint", ""), key=doc.get("key", ""),
        result=doc.get("result"), elapsed_s=doc.get("elapsed_s", 0.0),
        created_unix=doc.get("created_unix", 0.0), path=path,
    )
