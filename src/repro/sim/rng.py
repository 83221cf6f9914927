"""Deterministic per-component random-number streams.

Each model component that needs randomness (cache random replacement,
workload generation, MP3D particle motion, ...) asks for a named stream.
Streams are derived from one master seed, so:

* two runs with the same master seed are bit-identical, and
* adding a new consumer of randomness does not perturb existing streams
  (each stream is seeded from a stable hash of its name, not from draw
  order).

The hash is SHA-256 of ``"<seed>/<name>"`` (its first 8 bytes, big
endian), taken from the interpreter's built-in module through
:mod:`repro.sim.digest` rather than ``hashlib``, so seeding a stream does
not load OpenSSL; the digest, and so every stream, is the same.
"""

from __future__ import annotations

import random

from repro.sim.digest import sha256


class RngStreams:
    """Factory of named, independent ``random.Random`` instances."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            digest = sha256(f"{self.seed}/{name}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={len(self._streams)})"
