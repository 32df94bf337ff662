"""Content-addressed on-disk cache for offline preprocessing artifacts.

The §6 offline stage is the dominant wall-clock cost of every
full-fidelity benchmark, and it is fully deterministic: a far-BE panorama
is a pure function of (game spec, RenderConfig, codec parameters, cutoff
radius, viewpoint), and a leaf's dist_thresh is a pure function of those
plus the preprocessing seed.  This module persists both across processes
so repeated benchmark runs warm-start instead of re-rasterizing.

Keying: every entry's filename is the SHA-256 of a canonical JSON document
containing a schema version, the *world key* (game name/scale/seed, render
configuration, codec parameters, eye height) and the entry payload
(viewpoint + cutoff for frames; leaf key + search parameters for values).
Any change to any ingredient — including bumping
:data:`CACHE_SCHEMA_VERSION` when on-disk formats change — produces a
different address, so stale entries are never *read*; they are eventually
evicted by the LRU size cap.  The full key document is echoed inside each
entry and verified on load, so a hash collision or a hand-edited file
degrades to a cache miss, never to wrong data.

Eviction: entries are touched (mtime) on every hit and the store enforces
``max_bytes`` by deleting least-recently-used files after each write.
Writes are atomic (temp file + ``os.replace``) so concurrent processes
can share one cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from .. import perf
from ..codec import EncodedFrame

# Bump when the on-disk layout or any upstream semantics change.
CACHE_SCHEMA_VERSION = 1

_FRAME_PREFIX = "f_"
_VALUE_PREFIX = "v_"


def canonical_json(document: Mapping[str, Any]) -> str:
    """Deterministic JSON serialization used for content addressing."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def content_digest(document: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a document's canonical JSON form."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStatsSnapshot:
    """Hit/miss/eviction counters for one store instance."""

    hits: int
    misses: int
    evictions: int


class PanoramaDiskCache:
    """Persistent store of pre-rendered panoramas and derived values.

    ``world_key`` pins everything an entry depends on besides its own
    payload: build it with :func:`world_cache_key` so every consumer keys
    identically.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        world_key: Mapping[str, Any],
        max_bytes: int = 1 << 30,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.world_key = dict(world_key)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def _document(self, namespace: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "world": self.world_key,
            "namespace": namespace,
            "payload": dict(payload),
        }

    def _path(self, prefix: str, document: Mapping[str, Any]) -> Path:
        suffix = ".npz" if prefix == _FRAME_PREFIX else ".json"
        return self.root / f"{prefix}{content_digest(document)}{suffix}"

    # ------------------------------------------------------------------
    # Panoramic frames
    # ------------------------------------------------------------------

    @staticmethod
    def frame_payload(
        viewpoint: Tuple[float, float], cutoff: Optional[float], kind: str
    ) -> Dict[str, Any]:
        return {
            "viewpoint": [float(viewpoint[0]), float(viewpoint[1])],
            "cutoff": None if cutoff is None else float(cutoff),
            "kind": kind,
        }

    def load_frame(
        self, viewpoint: Tuple[float, float], cutoff: Optional[float], kind: str
    ) -> Optional[Tuple[np.ndarray, EncodedFrame]]:
        """The cached (raw image, encoded frame) pair, or None on miss."""
        document = self._document("frame", self.frame_payload(viewpoint, cutoff, kind))
        path = self._path(_FRAME_PREFIX, document)
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                if meta.get("key") != document:
                    raise ValueError("cache key mismatch")
                image = archive["image"]
                data = archive["data"].tobytes()
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            # Truncated/stale/corrupt entry: degrade to a miss and drop it.
            self._discard(path)
            self._miss()
            return None
        self._touch(path)
        self._hit()
        encoded = EncodedFrame(
            data=data,
            width=int(meta["width"]),
            height=int(meta["height"]),
            crf=float(meta["crf"]),
            is_keyframe=bool(meta["is_keyframe"]),
        )
        return image, encoded

    def store_frame(
        self,
        viewpoint: Tuple[float, float],
        cutoff: Optional[float],
        kind: str,
        image: np.ndarray,
        encoded: EncodedFrame,
    ) -> None:
        """Persist a rendered frame atomically, then enforce the size cap."""
        document = self._document("frame", self.frame_payload(viewpoint, cutoff, kind))
        path = self._path(_FRAME_PREFIX, document)
        meta = {
            "key": document,
            "width": encoded.width,
            "height": encoded.height,
            "crf": encoded.crf,
            "is_keyframe": encoded.is_keyframe,
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    image=np.asarray(image, dtype=np.float32),
                    data=np.frombuffer(encoded.data, dtype=np.uint8),
                    meta=np.array(json.dumps(meta)),
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                self._discard(tmp)
        self._enforce_cap()

    # ------------------------------------------------------------------
    # Small derived values (dist-thresh, size models)
    # ------------------------------------------------------------------

    def load_value(self, namespace: str, payload: Mapping[str, Any]) -> Optional[Any]:
        """A cached JSON-serializable value, or None on miss."""
        document = self._document(namespace, payload)
        path = self._path(_VALUE_PREFIX, document)
        try:
            entry = json.loads(path.read_text())
            if entry.get("key") != document:
                raise ValueError("cache key mismatch")
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            self._discard(path)
            self._miss()
            return None
        self._touch(path)
        self._hit()
        return entry["value"]

    def store_value(
        self, namespace: str, payload: Mapping[str, Any], value: Any
    ) -> None:
        """Persist a JSON-serializable value atomically."""
        document = self._document(namespace, payload)
        path = self._path(_VALUE_PREFIX, document)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps({"key": document, "value": value}))
        os.replace(tmp, path)
        self._enforce_cap()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def stats(self) -> CacheStatsSnapshot:
        """This instance's hit/miss/eviction counts."""
        return CacheStatsSnapshot(self.hits, self.misses, self.evictions)

    def size_bytes(self) -> int:
        """Total bytes currently stored under the cache root."""
        return sum(
            entry.stat().st_size
            for entry in self.root.iterdir()
            if entry.is_file() and not entry.name.startswith(".")
        )

    def entry_count(self) -> int:
        """Number of cache entries (frames plus values) on disk."""
        return sum(
            1
            for entry in self.root.iterdir()
            if entry.suffix in (".npz", ".json") and entry.is_file()
        )

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries until under ``max_bytes``."""
        entries = []
        total = 0
        for entry in self.root.iterdir():
            if not entry.is_file() or entry.suffix not in (".npz", ".json"):
                continue
            try:
                stat = entry.stat()
            except FileNotFoundError:
                continue  # concurrent eviction by another process
            entries.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest mtime first
        for _, size, entry in entries:
            if total <= self.max_bytes:
                break
            self._discard(entry)
            self.evictions += 1
            perf.count("panorama_store.evictions")
            total -= size

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _hit(self) -> None:
        self.hits += 1
        perf.count("panorama_store.hits")

    def _miss(self) -> None:
        self.misses += 1
        perf.count("panorama_store.misses")


def world_cache_key(
    game: str,
    scale: float,
    seed: int,
    render_config,
    crf: float,
    eye_height: float,
) -> Dict[str, Any]:
    """The shared key ingredients for one game's preprocessing artifacts.

    ``render_config`` is flattened field-by-field so any rendering knob
    change invalidates the cache; game identity is by (name, scale) because
    world construction is deterministic in them.
    """
    from dataclasses import asdict

    return {
        "game": game,
        "scale": float(scale),
        "seed": int(seed),
        "render_config": {
            key: (float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else value)
            for key, value in asdict(render_config).items()
        },
        "crf": float(crf),
        "eye_height": float(eye_height),
    }
