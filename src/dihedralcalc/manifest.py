"""Run manifests: reproducibility envelopes attached to every artifact.

A manifest records what produced an output (command, parameters, seed,
ground field, toolchain) together with sha256 digests of the payloads.
Serialization is canonical (sorted keys, no whitespace, ASCII), so equal
documents always yield equal bytes and equal digests.  It is also
compositional: a value nested in a document is encoded exactly as it is
on its own, so a document's bytes can be spliced from those of its parts.
"""

from __future__ import annotations

import hashlib
import json
import platform
from typing import Any, Mapping

from . import __version__


def canonical_bytes(document: Any) -> bytes:
    """Canonical JSON encoding with a trailing newline."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return (text + "\n").encode("ascii")


def digest(document: Any) -> str:
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def toolchain() -> dict[str, str]:
    return {"package": __version__, "python": platform.python_version()}


def make_manifest(command: str, parameters: Mapping[str, Any],
                  payloads: Mapping[str, Any], *,
                  seed: int | None = None,
                  field: dict[str, Any] | None = None) -> dict[str, Any]:
    """A payload given as bytes is taken to be its own canonical encoding,
    so a caller that has encoded it already does not encode it again."""
    digests = {name: hashlib.sha256(doc).hexdigest()
               if isinstance(doc, bytes) else digest(doc)
               for name, doc in sorted(payloads.items())}
    return {"command": command, "parameters": dict(parameters), "seed": seed,
            "field": field, "toolchain": toolchain(), "digests": digests}


def wrap(command: str, parameters: Mapping[str, Any], payload: Any, *,
         seed: int | None = None,
         field: dict[str, Any] | None = None) -> dict[str, Any]:
    """Bundle a payload with its manifest into one JSON document."""
    return {"manifest": make_manifest(command, parameters, {"payload": payload},
                                      seed=seed, field=field),
            "payload": payload}
