"""An all-software Tempest backend (no custom hardware).

Section 2 of the paper: "Tempest can also be implemented in software for
existing machines.  We are currently investigating a 'native' version for
the CM-5" — the direction that became the Blizzard systems.  This package
models such a machine: commodity message-passing nodes where

* fine-grain access control is synthesized in software (inserted check
  code / the ECC-sentinel trick; :class:`repro.sim.config.BlizzardCosts`),
* there is **no NP** — protocol handlers run on the primary CPU, which
  polls the network at every shared-memory reference, and
* everything else (tags, page tables, the Tempest facade) is the same
  machinery Typhoon uses.

The payoff is twofold.  First, portability made executable: the *same*
:class:`~repro.protocols.stache.StacheProtocol` object installs on a
:class:`BlizzardMachine` unchanged — exactly the Tempest abstraction
claim.  Second, the Typhoon hardware's value can be measured: the
software-vs-hardware Tempest bench quantifies what the NP buys.
"""

from repro.blizzard.node import BlizzardNode
from repro.blizzard.system import BlizzardMachine

__all__ = ["BlizzardMachine", "BlizzardNode"]
