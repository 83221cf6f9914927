"""Code-version fingerprint of the ``repro`` source tree.

The sweep result store (:mod:`repro.harness.store`) keys every cached
cell by the sweep axes *plus* this digest, so a cached row can never
outlive the code that produced it: touch any file under the package and
every prior entry silently becomes a miss (and is reclaimable with
``ResultStore.gc()``).

The digest is exposed as ``repro.__source_digest__`` (PEP 562 module
attribute) and covers **every regular file** under the installed package
directory — ``.py`` sources *and* declared package data (a protocol
table shipped as JSON, a calibration file, ...) — relative path and
content both, so renames invalidate as reliably as edits.  Only
interpreter by-products are excluded (``__pycache__`` directories,
``.pyc``/``.pyo`` bytecode), because they vary per interpreter without
any semantic change; the exclusion is pinned by
``tests/harness/test_store.py``.  It is computed once per process and
cached; pass ``refresh=True`` after modifying sources in-process (tests
do).
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.digest import sha256

_cached: str | None = None

#: Interpreter by-products excluded from the digest: byte-identical
#: sources can produce differing bytecode across interpreters, and stale
#: caches linger after edits, so hashing them would only add noise.
_EXCLUDED_DIRS = frozenset({"__pycache__"})
_EXCLUDED_SUFFIXES = (".pyc", ".pyo")


def _fingerprinted_files(root: Path) -> list[Path]:
    """Every package file the digest covers, in canonical order."""
    return sorted(
        (
            path
            for path in root.rglob("*")
            if path.is_file()
            and not _EXCLUDED_DIRS.intersection(
                path.relative_to(root).parts[:-1])
            and path.suffix not in _EXCLUDED_SUFFIXES
        ),
        key=lambda p: p.relative_to(root).as_posix(),
    )


def source_digest(refresh: bool = False) -> str:
    """Hex digest (16 chars) of the ``repro`` package's source tree."""
    global _cached
    if _cached is None or refresh:
        root = Path(__file__).resolve().parent
        digest = sha256()
        for path in _fingerprinted_files(root):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _cached = digest.hexdigest()[:16]
    return _cached
