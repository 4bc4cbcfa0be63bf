"""On-disk acceptance-curve cache.

``empirical_sample_complexity`` probes the same (tester, distribution,
trials, seed) points over and over — bisection revisits levels, experiment
re-runs repeat whole curves.  Every probe is a pure function of its
fingerprint, so the engine memoises the estimated acceptance rate in one
small JSON file per probe under a content-addressed name.

Keys combine:

* a **kernel cache token** — the stable identity of the computation,
  which every kernel builds from explicit fields (kernel kind, class,
  per-kernel version and every parameter at full precision; protocols
  compose their players' and referee's tokens).  Because the token names
  the *kind* of kernel, a closeness or network curve can never collide
  with a protocol curve that happens to share (n, q, k, seed);
* a **distribution fingerprint** — SHA-256 of the exact pmf bytes;
* the estimation **mode** — fixed trial budget or SPRT spec;
* the derived root-entropy seed identity.

Entries store the full :class:`~repro.engine.estimate.AcceptanceEstimate`
payload (rate, trials used, sequential verdict), keeping the cache a few
hundred bytes per probe even for million-trial runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

import numpy as np

from ..exceptions import InvalidParameterError

#: Bump when the cached payload or key layout changes incompatibly.
#: Version 2: kernel-identity keys + full-estimate payloads.
CACHE_VERSION = 2


def distribution_fingerprint(distribution: Any) -> str:
    """Content hash of a :class:`DiscreteDistribution`'s exact pmf."""
    digest = hashlib.sha256(np.ascontiguousarray(distribution.pmf).tobytes())
    return f"n{distribution.n}-{digest.hexdigest()[:24]}"


def array_digest(array: Any) -> str:
    """Exact identity of an array parameter: SHA-256 of dtype, shape, bytes.

    Strategy, referee and tester cache tokens enter array-valued
    parameters (subset indicators, referee weights, level boundaries)
    through this, so two configurations share a token only when every
    element is bit-equal.
    """
    values = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{values.dtype.str}{values.shape}".encode("utf-8"))
    digest.update(values.tobytes())
    return digest.hexdigest()


def seed_fingerprint(seed: np.random.SeedSequence) -> str:
    """Identity of a derived seed: root entropy plus spawn key."""
    return f"{seed.entropy}:{','.join(str(k) for k in seed.spawn_key)}"


def kernel_probe_key(
    kernel: Any,
    distribution: Any,
    mode: Dict[str, Any],
    root_entropy: int,
) -> Dict[str, Any]:
    """The full cache key for one kernel-based acceptance estimate.

    ``mode`` is the estimation-mode descriptor (``{"trials": N}`` or
    ``{"sprt": {...}}``); the kernel's ``cache_token`` carries the
    identity and version of the computation itself.
    """
    return {
        "version": CACHE_VERSION,
        "kernel": dict(kernel.cache_token),
        "distribution": (
            "none" if distribution is None else distribution_fingerprint(distribution)
        ),
        "mode": mode,
        "seed": str(int(root_entropy)),
    }


class AcceptanceCache:
    """A directory of content-addressed acceptance-rate memo files."""

    def __init__(self, cache_dir: str):
        if not cache_dir:
            raise InvalidParameterError("cache_dir must be a non-empty path")
        self.cache_dir = os.path.abspath(cache_dir)
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
        except OSError as error:
            raise InvalidParameterError(
                f"cache_dir {self.cache_dir!r} is not a usable directory: {error}"
            ) from error

    def _path(self, key: Dict[str, Any]) -> str:
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"accept-{digest[:40]}.json")

    def _read(self, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One entry's payload dict, or ``None`` on miss/corruption/staleness."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("key", {}).get("version") != CACHE_VERSION:
            return None
        return payload

    def _write(self, key: Dict[str, Any], payload: Dict[str, Any]) -> str:
        """Persist one entry atomically; returns the entry path.

        The write goes through a same-directory temp file + rename so
        concurrent processes never observe a torn entry.
        """
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
        return path

    def get_estimate(self, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The memoised estimate payload, or ``None`` on a miss.

        Corrupt or stale-format entries read as misses and are
        overwritten by the next ``put_estimate``.
        """
        payload = self._read(key)
        if payload is None:
            return None
        estimate = payload.get("estimate")
        return estimate if isinstance(estimate, dict) else None

    def put_estimate(self, key: Dict[str, Any], estimate: Dict[str, Any]) -> str:
        """Persist one full estimate payload; returns the entry path."""
        return self._write(key, {"key": key, "estimate": dict(estimate)})

    def __len__(self) -> int:
        return len(
            [
                name
                for name in os.listdir(self.cache_dir)
                if name.startswith("accept-") and name.endswith(".json")
            ]
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        # Sorted so deletion (and any interleaved failure) happens in a
        # reproducible order independent of directory-listing order.
        for name in sorted(os.listdir(self.cache_dir)):
            if name.startswith("accept-") and name.endswith(".json"):
                os.remove(os.path.join(self.cache_dir, name))
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"AcceptanceCache({self.cache_dir!r}, entries={len(self)})"
