"""Sweep-as-a-service: asynchronous sweep jobs over the result store.

A :class:`SweepJob` decouples *describing* a sweep from *executing* it.
``submit`` persists the sweep's axes (plus the code-version digest it
was submitted under) as a JSON spec next to the store; any process that
can see the store can then

* ``status()``/``progress()`` the job — pure store probes, no
  simulation: a cell is *done* exactly when its row is cached;
* ``run()`` it — execute the missing cells (serial or ``workers=N``),
  which is incremental and restartable for free because every completed
  cell is already persisted; and
* ``result()`` it — assemble the full result table from the store
  (raises :class:`JobIncomplete` while cells are still missing).

Job ids are content-addressed too — the hash of the spec and the
digest — so resubmitting the same sweep under the same code version is
idempotent, and submitting it after a source change is a *new* job
whose cells all miss.  The ``python -m repro sweep`` CLI is a thin
front end over this class; see ``docs/sweeps.md``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.harness.report import ExperimentResult
from repro.harness.store import ResultStore
from repro.harness.sweep import Sweep
from repro.network.faults import FaultSpec
from repro.sim.digest import sha256


class JobIncomplete(RuntimeError):
    """``result()`` was asked for while cells are still missing."""


def _spec_from_sweep(sweep: Sweep, nodes: int) -> dict[str, Any]:
    """The persistable description of a sweep (axes only, no results)."""
    spec: dict[str, Any] = {
        "version": 1,
        "nodes": nodes,
        "systems": list(sweep._systems),
        "workloads": [list(pair) for pair in sweep._workloads],
        "cache_sizes": list(sweep._cache_sizes),
        "seeds": list(sweep._seeds),
        "faults": None,
        "conformance": None,
    }
    if sweep._faults is not None:
        spec["faults"] = [
            dataclasses.asdict(fault) if fault is not None else None
            for fault in sweep._faults
        ]
    if sweep._conformance is not None:
        spec["conformance"] = [bool(flag) for flag in sweep._conformance]
    return spec


def _sweep_from_spec(spec: dict[str, Any]) -> Sweep:
    """Reconstruct the Sweep a spec describes (inverse of the above)."""
    sweep = (
        Sweep()
        .systems(*spec["systems"])
        .workloads(*[tuple(pair) for pair in spec["workloads"]])
        .cache_sizes(*spec["cache_sizes"])
        .seeds(*spec["seeds"])
    )
    if spec.get("faults") is not None:
        sweep.faults(*[
            FaultSpec(**fields) if fields is not None else None
            for fields in spec["faults"]
        ])
    if spec.get("conformance") is not None:
        sweep.conformance(*spec["conformance"])
    return sweep


class SweepJob:
    """One submitted sweep: a persisted spec plus the store it fills."""

    def __init__(self, store: ResultStore, spec: dict[str, Any]) -> None:
        self.store = store
        self.spec = spec
        self.job_id = spec["job"]

    # ------------------------------------------------------------------
    @classmethod
    def submit(cls, sweep: Sweep, nodes: int = 8,
               store=None) -> "SweepJob":
        """Persist ``sweep`` as a job and return a handle to it.

        ``store`` resolves like ``Sweep.run(store=...)`` except that a
        job always needs one: with caching disabled in the environment
        the default ``.repro-store/`` is still used.
        """
        resolved = ResultStore.resolve(store if store is not None
                                       else "auto")
        if resolved is None:
            resolved = ResultStore(".repro-store")
        spec = _spec_from_sweep(sweep, nodes)
        spec["digest"] = resolved.digest
        canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        spec["job"] = sha256(canonical.encode()).hexdigest()[:12]
        path = resolved.root / "jobs" / f"{spec['job']}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec, indent=1, sort_keys=True),
                        encoding="utf-8")
        return cls(resolved, spec)

    @classmethod
    def load(cls, job_id: str, store=None) -> "SweepJob":
        """Reopen a previously submitted job by id."""
        resolved = ResultStore.resolve(store if store is not None
                                       else "auto")
        if resolved is None:
            resolved = ResultStore(".repro-store")
        path = resolved.root / "jobs" / f"{job_id}.json"
        try:
            spec = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise KeyError(f"no job {job_id!r} under {resolved.root}"
                           ) from error
        return cls(resolved, spec)

    @classmethod
    def jobs(cls, store=None) -> list[str]:
        """Ids of every job persisted next to the store."""
        resolved = ResultStore.resolve(store if store is not None
                                       else "auto")
        if resolved is None:
            resolved = ResultStore(".repro-store")
        jobs_dir = resolved.root / "jobs"
        if not jobs_dir.is_dir():
            return []
        return sorted(path.stem for path in jobs_dir.glob("*.json"))

    # ------------------------------------------------------------------
    def sweep(self) -> Sweep:
        return _sweep_from_spec(self.spec)

    @property
    def nodes(self) -> int:
        return self.spec["nodes"]

    def progress(self) -> tuple[int, int]:
        """``(cells done, cells total)`` — a pure store probe.

        Counts against the store's *current* code digest, so progress
        drops back toward zero when a source change invalidates the
        job's cached cells — the spec's ``digest`` field records what
        the job was submitted under, as provenance only.
        """
        cells = self.sweep().cell_list(self.nodes)
        done = sum(1 for cell in cells
                   if self.store.get(cell) is not None)
        return done, len(cells)

    def status(self) -> dict[str, Any]:
        """Job summary: state (pending/partial/complete) and counts."""
        done, total = self.progress()
        if done == 0:
            state = "pending"
        elif done < total:
            state = "partial"
        else:
            state = "complete"
        return {
            "job": self.job_id,
            "state": state,
            "done": done,
            "total": total,
            "nodes": self.nodes,
            "digest": self.spec["digest"],
            "current": self.spec["digest"] == self.store.digest,
            "store": str(self.store.root),
        }

    def run(self, workers: int = 1, progress=None) -> ExperimentResult:
        """Execute the job's missing cells and return the full table.

        Incremental and restartable: already-cached cells are hits,
        each newly computed cell is persisted immediately, and a rerun
        after an interruption picks up where the last one stopped.
        """
        return self.sweep().run(nodes=self.nodes, progress=progress,
                                workers=workers, store=self.store)

    def result(self) -> ExperimentResult:
        """Assemble the result table from the store alone.

        Raises :class:`JobIncomplete` if any cell is missing — call
        :meth:`run` (or let the nightly runner fill the store) first.
        """
        done, total = self.progress()
        if done < total:
            raise JobIncomplete(
                f"job {self.job_id}: {total - done} of {total} cells "
                f"not in store; run the job first")
        result = self.run(workers=1)
        assert result.cache_stats["executed"] == 0
        return result
