"""SHA-256 from the interpreter's built-in module, without OpenSSL.

``hashlib`` loads OpenSSL's ``_hashlib`` (and with it libcrypto, several
MB of resident memory) the first time it is imported.  Every digest
``repro`` takes — RNG stream seeds, result-store keys, job ids and the
source fingerprint — is a plain SHA-256, which CPython also ships as a
small built-in module: ``_sha2`` on 3.12+, ``_sha256`` on 3.10–3.11.
CPython's own ``random.py`` takes ``_sha512`` the same way.  The digests
are byte-identical to ``hashlib.sha256``; ``hashlib`` is imported only
when neither built-in module exists.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
