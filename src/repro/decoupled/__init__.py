"""The decoupled software-handler backend (paper Section 7's middle point).

Blizzard's software access control with Typhoon's handler concurrency:
each node pairs a compute CPU (inserted tag checks, no inserted polls)
with a second CPU running a software dispatch loop that polls the
network and executes protocol handlers concurrently with computation — the
dual-processor direction the paper points at, later realized as
Typhoon-0/Typhoon-1.
"""

from repro.decoupled.node import DecoupledNode
from repro.decoupled.system import DecoupledMachine

__all__ = ["DecoupledMachine", "DecoupledNode"]
