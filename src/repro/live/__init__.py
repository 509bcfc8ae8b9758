"""Live execution backend: the simulated control plane on real processes.

``repro.live`` runs a compiled :class:`~repro.deploy.placement.Placement`
as actual OS processes -- one worker per node replica plus an edge worker
hosting the sources and clients -- communicating over Unix-domain sockets
with wall-clock timers.  The node/SPE/DPC code is byte-for-byte the same
code the discrete-event simulator executes; only the clock and the
transport differ (see ``repro.core.clock`` and DESIGN.md, "Live backend").

Import surface:

* ``Placement.deploy(backend="live")``, which returns a
  :class:`repro.live.supervisor.LiveDeployment`, and its ``run()`` result
* :class:`repro.live.supervisor.LiveBackendUnavailable` for platforms
  without the ``fork`` multiprocessing start method
"""

from __future__ import annotations

__all__ = ["wire"]
