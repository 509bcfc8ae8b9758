"""The deployment control plane: compile -> place -> deploy -> reconfigure.

This package layers deployment into three explicit steps:

* :func:`compile` -- turn a :class:`~repro.topology.Topology` into a
  :class:`Placement`: a pure, inspectable, diffable plan of sources, replica
  groups, fragment shapes, and (optionally content-filtered) subscriptions;
* :meth:`Placement.deploy` -- materialize the plan (one placement walk,
  :mod:`repro.deploy.wiring`, for the simulator and the live workers alike),
  returning a live :class:`Deployment` handle that owns the cluster;
* :meth:`Deployment.apply` -- reconfigure the *running* deployment from a
  :class:`~repro.sharding.RebalancePlan`: bucket handoff between shard
  fragments with filter-epoch cuts and SJoin state shipping, closing the
  loop from observed skew to a re-deployed assignment.

See DESIGN.md, "Deployment control plane".
"""

from .autoscaler import AutoscalePolicy, Autoscaler
from .deployment import Deployment, deploy_placement
from .filters import SubscriptionFilter
from .placement import (
    FRAGMENT_ENTRY,
    FRAGMENT_FANIN,
    FRAGMENT_RELAY,
    ClientPlan,
    DeployOptions,
    NodePlan,
    Placement,
    SourcePlan,
    SubscriptionPlan,
    compile,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "ClientPlan",
    "DeployOptions",
    "Deployment",
    "FRAGMENT_ENTRY",
    "FRAGMENT_FANIN",
    "FRAGMENT_RELAY",
    "NodePlan",
    "Placement",
    "SourcePlan",
    "SubscriptionFilter",
    "SubscriptionPlan",
    "compile",
    "deploy_placement",
]
