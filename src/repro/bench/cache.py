"""On-disk memoization of experiment runs.

Every :class:`~repro.bench.parallel.RunSpec` is a pure function of its
payload (workload parameters, seed, cluster configuration, builder and
its arguments), so its measurement can be stored once and replayed
forever — once, too, when two experiments declare the same run.
:class:`ResultCache` keys each measurement by a SHA-256 fingerprint of
that payload *plus the package version*, so a version bump invalidates
every prior entry without any scanning.

Entries live as one JSON file per run under ``.repro-cache/`` (two-hex
fan-out directories keep any one directory small).  Writes are atomic
(temp file + ``os.replace``), reads treat any unreadable or mismatched
file as a miss, and the envelope records the human-readable spec
payload next to the measurement for debuggability.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Dict, Optional

#: Envelope format version for cache files (bumping it invalidates
#: nothing by itself — the key includes the package version — but lets
#: readers reject files written by a different layout).
CACHE_SCHEMA_VERSION = 1

DEFAULT_CACHE_DIR = ".repro-cache"


def _package_version() -> str:
    from repro import __version__  # lazy: repro imports repro.bench

    return __version__


class ResultCache:
    """Filesystem-backed measurement store, keyed by run fingerprint.

    ``version`` defaults to the installed package version; tests pass
    explicit versions to exercise invalidation-on-bump.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None):
        self.root = str(root)
        self.version = version if version is not None else _package_version()
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def key(self, spec) -> str:
        # Strict serialization on purpose: RunSpec validates its
        # payload as JSON-native at construction, so a TypeError here
        # means a spec bypassed that check — better a loud failure than
        # a repr-based fingerprint that is unstable across processes.
        blob = json.dumps(
            {"version": self.version, "spec": spec.payload()},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path(self, spec) -> str:
        key = self.key(spec)
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- storage -----------------------------------------------------------

    def get(self, spec) -> Optional[Dict[str, object]]:
        """The cached measurement for ``spec``, or ``None`` on a miss.
        Corrupt or foreign files count as misses, never as errors."""
        try:
            with open(self.path(spec), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != CACHE_SCHEMA_VERSION
            or "measurement" not in envelope
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope["measurement"]

    def put(self, spec, measurement: Dict[str, object]) -> str:
        """Store one measurement atomically; returns the file path."""
        target = self.path(spec)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": self.version,
            "key": spec.key,
            "spec": spec.payload(),
            "measurement": measurement,
        }
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True, default=str)
            os.replace(temp_path, target)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return target

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Delete every cached entry (the whole cache directory)."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
