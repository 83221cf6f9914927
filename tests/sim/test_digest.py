"""Pins for the built-in SHA-256 helper (:mod:`repro.sim.digest`).

Every digest ``repro`` takes goes through one helper that avoids
OpenSSL.  These tests check, site by site, that swapping the helper for
``hashlib.sha256`` changes nothing, and pin the first draw of a few RNG
streams so a change of stream seeds cannot pass unnoticed.
"""

import hashlib
import random

import pytest

from repro import _fingerprint
from repro.harness import service, store
from repro.harness.service import SweepJob
from repro.harness.store import ResultStore, cell_key
from repro.harness.sweep import Sweep
from repro.network.faults import FaultSpec
from repro.sim import digest
from repro.sim.rng import RngStreams

STREAM_NAMES = ("cache", "faults", "em3d.graph", "mp3d.init",
                "node3.cache", "node0.dir.cache")


def test_helper_is_builtin_and_matches_hashlib():
    builtin = type(digest.sha256()).__module__
    assert builtin in ("_sha2", "_sha256")
    for data in (b"", b"abc", bytes(range(256)) * 9):
        assert digest.sha256(data).digest() == hashlib.sha256(data).digest()
    incremental = digest.sha256()
    incremental.update(b"ab")
    incremental.update(b"c")
    assert incremental.hexdigest() == hashlib.sha256(b"abc").hexdigest()


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_rng_streams_are_seeded_like_hashlib(seed):
    draws = [RngStreams(seed).stream(name).random() for name in STREAM_NAMES]
    expected = []
    for name in STREAM_NAMES:
        seed_digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
        expected.append(
            random.Random(int.from_bytes(seed_digest[:8], "big")).random())
    assert draws == expected


# First draws of the hashlib-seeded streams: a stream's seed never changes.
@pytest.mark.parametrize("seed, name, first", [
    (0, "cache", 0.4194211793970809),
    (7, "cache", 0.916808279301437),
    (42, "cache", 0.8137638461998878),
    (42, "em3d.graph", 0.15062173647509602),
    (42, "mp3d.init", 0.6586431655902364),
    (7, "ocean.init", 0.803393636846682),
    (0, "faults", 0.08835022885114752),
    (42, "node3.cache", 0.09028041531908071),
    (1, "barnes.init", 0.23710997790381494),
])
def test_first_draw_is_pinned(seed, name, first):
    assert RngStreams(seed).stream(name).random() == first


@pytest.mark.parametrize("cell", [
    ("dirnnb", "ocean", "small", 1024, 7, 2),
    ("typhoon-stache", "em3d", "large", 32768, 42, 32,
     FaultSpec(drop_pct=0.01)),
    ("dirnnb", "mp3d", "small", 2048, 1, 4, None, True),
])
def test_cell_key_matches_hashlib(cell, monkeypatch):
    key = cell_key(cell, "d" * 16)
    monkeypatch.setattr(store, "sha256", hashlib.sha256)
    assert cell_key(cell, "d" * 16) == key


def test_job_id_matches_hashlib(tmp_path, monkeypatch):
    sweep = (Sweep().systems("dirnnb").workloads(("ocean", "small"))
             .cache_sizes(2048).seeds(1, 2))
    results = ResultStore(tmp_path / "store", digest="d" * 16)
    job_id = SweepJob.submit(sweep, nodes=2, store=results).job_id
    monkeypatch.setattr(service, "sha256", hashlib.sha256)
    assert SweepJob.submit(sweep, nodes=2, store=results).job_id == job_id


def test_source_digest_matches_hashlib(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sub" / "a.py").write_text("x = 1\n")
    (package / "sub" / "table.json").write_bytes(b'{"rows": []}')
    monkeypatch.setattr(_fingerprint, "__file__", str(package / "__init__.py"))
    digest = _fingerprint.source_digest(refresh=True)
    monkeypatch.setattr(_fingerprint, "sha256", hashlib.sha256)
    assert _fingerprint.source_digest(refresh=True) == digest
    monkeypatch.undo()
    _fingerprint.source_digest(refresh=True)
