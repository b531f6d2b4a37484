"""The cluster manifest: declarative multi-host topology for routers.

A deployment that outgrows one machine stops being a tree of forked
children: shard servers come up on their own hosts (``repro shard-serve
graph.grps --shard 2``), routers come and go independently, and the
only thing binding them is a small JSON document — the **cluster
manifest** — saying which endpoints serve which shard of which
container build::

    {
      "version": 1,
      "epoch": 3,
      "grps_hash": "9f2a…64 hex chars…",
      "container": "graph.grps",
      "shards": [["10.0.0.5:9000", "10.0.0.6:9000"],
                 ["10.0.0.7:9000", "10.0.0.8:9000"]]
    }

``shards[i]`` lists the **replica endpoints** of logical shard ``i``
(a router load-balances reads across them and fails over when one
drops); ``grps_hash`` is the SHA-256 of the container bytes, so a
router can prove its routing metadata (boundary closure, shard node
counts) describes the *same build* every endpoint decoded; ``epoch``
is the deployment generation — bumped on every re-partition/re-deploy,
and checked against each shard server's self-description so a router
started from a stale file fails loudly instead of merging answers
across generations.

Manifests are validated on load (:meth:`ClusterManifest.load`) and on
construction: every violation raises
:class:`~repro.exceptions.ManifestError` naming the offending field.
The module is pure data — no sockets, no grammars — so it is testable
in isolation and safe to import anywhere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.exceptions import ManifestError
from repro.serving.codec import WireError, parse_address

__all__ = [
    "MANIFEST_VERSION",
    "ClusterManifest",
    "container_hash",
]

#: The manifest schema generation this build reads and writes.
MANIFEST_VERSION = 1

_HASH_HEX_LENGTH = 64  # sha256


def container_hash(data: bytes) -> str:
    """The canonical identity of a container build: SHA-256, hex."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ClusterManifest:
    """One validated cluster topology: shard → replica endpoints.

    Immutable by design — a manifest describes a deployment *moment*;
    changing the topology means writing a new file with a new epoch.
    Construction validates every field (endpoint syntax included), so
    a manifest object in hand is always well-formed.
    """

    #: ``shards[i]`` = the replica endpoints of logical shard ``i``.
    shards: Tuple[Tuple[str, ...], ...]
    #: SHA-256 (hex) of the container bytes every endpoint decoded.
    grps_hash: str
    #: Deployment generation; routers refuse mismatched shard servers.
    epoch: int = 0
    #: Optional path to the container file (relative paths are
    #: resolved against the manifest file's directory on load).
    container: Optional[str] = None
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shards",
            tuple(tuple(group) for group in self.shards))
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {self.version!r} "
                f"(this build reads version {MANIFEST_VERSION})")
        if not isinstance(self.epoch, int) or isinstance(self.epoch, bool) \
                or self.epoch < 0:
            raise ManifestError(
                f"manifest epoch must be a non-negative integer, "
                f"got {self.epoch!r}")
        if not (isinstance(self.grps_hash, str)
                and len(self.grps_hash) == _HASH_HEX_LENGTH
                and all(ch in "0123456789abcdef"
                        for ch in self.grps_hash)):
            raise ManifestError(
                "manifest grps_hash must be a 64-character lowercase "
                f"sha256 hex digest, got {self.grps_hash!r}")
        if not self.shards:
            raise ManifestError("manifest lists no shards")
        for index, group in enumerate(self.shards):
            if not group:
                raise ManifestError(
                    f"shard {index} lists no replica endpoints")
            for endpoint in group:
                if not isinstance(endpoint, str):
                    raise ManifestError(
                        f"shard {index} endpoint {endpoint!r} is not "
                        f"a string")
                try:
                    parse_address(endpoint)
                except (WireError, ValueError) as exc:
                    raise ManifestError(
                        f"shard {index} endpoint {endpoint!r} is "
                        f"invalid: {exc}") from None

    # ------------------------------------------------------------------
    # Convenience surface
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def endpoints_for(self, shard: int) -> Tuple[str, ...]:
        """The replica endpoints of one logical shard."""
        if not 0 <= shard < len(self.shards):
            raise ManifestError(
                f"shard index {shard} out of range "
                f"(manifest has {len(self.shards)} shards)")
        return self.shards[shard]

    def matches(self, data: bytes) -> bool:
        """Whether ``data`` is the container build this manifest names."""
        return container_hash(data) == self.grps_hash

    def verify_container(self, data: bytes) -> None:
        """Raise :class:`ManifestError` unless ``data`` matches."""
        actual = container_hash(data)
        if actual != self.grps_hash:
            raise ManifestError(
                f"container hash mismatch: manifest names build "
                f"{self.grps_hash[:12]}…, the container on disk is "
                f"{actual[:12]}… — refusing to route with stale "
                f"metadata")

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def for_container(cls, data: bytes,
                      shards: Sequence[Sequence[str]],
                      epoch: int = 0,
                      container: Optional[Union[str, Path]] = None
                      ) -> "ClusterManifest":
        """Build a manifest for a container already in hand."""
        return cls(shards=tuple(tuple(group) for group in shards),
                   grps_hash=container_hash(data), epoch=epoch,
                   container=(None if container is None
                              else str(container)))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "version": self.version,
            "epoch": self.epoch,
            "grps_hash": self.grps_hash,
            "shards": [list(group) for group in self.shards],
        }
        if self.container is not None:
            payload["container"] = self.container
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "ClusterManifest":
        if not isinstance(payload, dict):
            raise ManifestError(
                f"manifest must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = set(payload) - {"version", "epoch", "grps_hash",
                                  "codec", "container", "shards"}
        if unknown:
            raise ManifestError(
                f"unknown manifest fields: {sorted(unknown)}")
        # Older manifests name the wire codec; JSON is the only one.
        if payload.get("codec", "json") != "json":
            raise ManifestError(
                f"unsupported manifest codec {payload['codec']!r}; "
                f"the wire speaks only 'json'")
        missing = {"grps_hash", "shards"} - set(payload)
        if missing:
            raise ManifestError(
                f"manifest is missing required fields: "
                f"{sorted(missing)}")
        shards = payload["shards"]
        if not isinstance(shards, list) or not all(
                isinstance(group, list) for group in shards):
            raise ManifestError(
                "manifest shards must be a list of endpoint lists")
        return cls(shards=tuple(tuple(group) for group in shards),
                   grps_hash=payload["grps_hash"],
                   epoch=payload.get("epoch", 0),
                   container=payload.get("container"),
                   version=payload.get("version", MANIFEST_VERSION))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the manifest as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClusterManifest":
        """Read + validate a manifest file.

        Every failure mode — unreadable file, malformed JSON, schema
        violation — surfaces as :class:`ManifestError` naming the
        file, so ``serve --manifest`` fails with one coherent message.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ManifestError(
                f"cannot read manifest {path}: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(
                f"manifest {path} is not valid JSON: {exc}") from None
        manifest = cls.from_dict(payload)
        if manifest.container is not None:
            # Relative container paths mean "next to the manifest".
            resolved = Path(manifest.container)
            if not resolved.is_absolute():
                object.__setattr__(manifest, "container",
                                   str(path.parent / resolved))
        return manifest
