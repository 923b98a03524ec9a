"""The long-running broadcast session service (ROADMAP open item 3).

One sweep at a time (:mod:`repro.engine`) is the experiment posture; a
production deployment serves *thousands of concurrent NAB sessions* from one
long-lived process.  This package is that service layer:

* :mod:`repro.service.session` — one session = one :class:`SessionSpec`
  executed instance by instance, checkpointing its cross-instance state
  (dispute knowledge, instance index, completed results, pending inputs)
  after every instance.  Sessions are pure functions of their spec, so a
  checkpoint plus the spec determines the rest of the run exactly.
* :mod:`repro.service.wal` — the crash-safe write-ahead log those checkpoints
  land in (append + fsync cadence; loading and rewrites through
  :mod:`repro.durable`).
* :mod:`repro.service.pool` — a supervised pool of *persistent* workers with
  warm per-topology caches, topology-affine dispatch with work stealing,
  bounded queues with deterministic seeded-lattice load shedding, retry with
  exponential backoff, and quarantine of poisoned tasks.  Engine sweeps run
  their cells on it too.
* :mod:`repro.service.service` — the orchestrator: resume from the output
  file and the WAL, run the pool, compact canonically.  A SIGKILLed worker or
  driver resumes every session mid-flight and the completed output file is
  byte-identical to an uninterrupted run.
* :mod:`repro.service.metrics` — the ops surface: throughput/latency
  counters, queue depths, cache hit rates, snapshot/restore counts, exported
  as ``<out>.status.json`` and via ``python -m repro.service --status``.
* :mod:`repro.service.workload` — deterministic session workload generation
  (mixed topologies and adversaries) for benchmarks and the chaos harness.
"""

from repro.service.metrics import ServiceMetrics
from repro.service.service import BroadcastSessionService, ServiceConfig, ServiceSummary
from repro.service.session import SessionSpec, run_session
from repro.service.wal import WriteAheadLog, load_wal
from repro.service.workload import generate_sessions

__all__ = [
    "BroadcastSessionService",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceSummary",
    "SessionSpec",
    "WriteAheadLog",
    "generate_sessions",
    "load_wal",
    "run_session",
]
