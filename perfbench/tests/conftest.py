"""Put the benchmark's modules and the repro sources on the import path."""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")
for path in (SRC, PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
