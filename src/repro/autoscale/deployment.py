"""The mixed Edison/R620 web testbed under autoscaler management.

A :class:`HybridWebDeployment` is a :class:`repro.web.WebServiceDeployment`
whose cluster is a :func:`~repro.cluster.hybrid_web_cluster`: the base
class wires each web node's costs, limits and memory from its own
platform, and runs the shaped day.  What the subclass adds is its own:
a capacity-weighted LB rotation, the fleet pool, and — when an enabled
:class:`AutoscaleConfig` is passed — the full control plane (actuator,
controller, ledger).

With autoscaling disabled (the default) nothing control-plane-shaped
is constructed: the deployment is just a static heterogeneous fleet
behind weighted routing, and two runs with the same seed are
bit-identical whether or not this module ever existed.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import hybrid_web_cluster
from ..hardware import ServerSpec
from ..web import params as P
from ..web.deployment import WebServiceDeployment
from ..web.httperf import LevelResult
from ..web.rotation import WeightedRotation
from .actuator import FleetActuator
from .config import AutoscaleConfig
from .controller import AutoscaleController
from .ledger import AutoscaleLedger
from .pool import ACTIVE, OFF, FleetPool, PoolNode


class HybridWebDeployment(WebServiceDeployment):
    """Edisons and R620s in one rotation, optionally autoscaled."""

    def __init__(self, edison_web: int = 6, dell_web: int = 1,
                 cache: int = 3,
                 workload: Optional[P.WebWorkload] = None,
                 seed: int = 20160901,
                 autoscale: Optional[AutoscaleConfig] = None,
                 edison_spec: Optional[ServerSpec] = None,
                 trace=None):
        self._layout = (edison_web, dell_web, cache)
        super().__init__("hybrid", f"{edison_web}e+{dell_web}d",
                         workload, seed=seed, edison_spec=edison_spec,
                         trace=trace)
        # The weighted rotation: every backend registered at its
        # platform's tuned capacity, so the Dell takes ~12x an
        # Edison's share instead of an equal one.
        self.rotation = WeightedRotation(self.sim)
        for web in self.web_nodes:
            self.rotation.add(web,
                              P.PER_SERVER_CAPACITY_RPS[web.server.platform])
        self.pool = FleetPool([
            PoolNode(web, P.PER_SERVER_CAPACITY_RPS[web.server.platform])
            for web in self.web_nodes])
        # Strictly opt-in, like resilience: a disabled config leaves
        # no controller, no ledger, no extra processes, no RNG draws.
        self.autoscale = (autoscale if autoscale is not None
                          and autoscale.enabled else None)
        self.ledger: Optional[AutoscaleLedger] = None
        self.controller: Optional[AutoscaleController] = None
        self.actuator: Optional[FleetActuator] = None
        if self.autoscale is not None:
            self.ledger = AutoscaleLedger()

    def _build_cluster(self, **kwargs):
        return hybrid_web_cluster(self.sim, *self._layout, **kwargs)

    def _ensure_injector(self):
        """The actuator needs ``sim.faults``; attach an empty one."""
        if self.sim.faults is None:
            from ..faults import FaultPlan
            return self.attach_faults(FaultPlan.empty())
        self.sim.faults.add_listener(self._on_fault_event)
        return self.sim.faults

    # -- running one day --------------------------------------------------

    def prepare_autoscaler(self, initial_rps: float,
                           until: Optional[float] = None
                           ) -> AutoscaleController:
        """Size the fleet for ``initial_rps`` and start the controller.

        Nodes outside the initial plan are suspended *before* the run
        begins — the day starts with the fleet the policy would have
        chosen had it been watching all along, not with everything on.
        """
        if self.autoscale is None:
            raise RuntimeError("this deployment has no enabled "
                               "AutoscaleConfig")
        if self.controller is not None:
            raise RuntimeError("the autoscaler is already prepared")
        injector = self._ensure_injector()
        self.actuator = FleetActuator(self.sim, injector, self.rotation,
                                      self.autoscale.actuation, self.ledger)
        policy = self.autoscale.policy
        wanted = {node.name for node in self.pool.plan_active_set(
            initial_rps / policy.target_utilization,
            self.autoscale.actuation.min_active)}
        for node in self.pool.nodes:
            if node.name not in wanted:
                node.state = OFF
                self.rotation.set_in_rotation(node.name, False)
                injector.admin_power_off(node.name)
            else:
                node.state = ACTIVE
        self.controller = AutoscaleController(
            self.sim, self.telemetry, self.pool, self.actuator,
            self.autoscale, self.ledger)
        self.controller.start(until=until)
        return self.controller

    def run_shaped(self, shape, duration: float, warmup: float = 0.0,
                   calls: int = 5,
                   collect_delays: bool = False) -> LevelResult:
        """Drive one shaped day through the weighted rotation.

        With an enabled config the autoscaler is prepared first (sized
        to the shape's opening rate) unless :meth:`prepare_autoscaler`
        was already called explicitly.  Requires attached telemetry
        when autoscaling — the controller reads the TSDB, nothing else.
        """
        if self.autoscale is not None and self.controller is None:
            self.prepare_autoscaler(shape.rate(0.0), until=duration)
        return super().run_shaped(shape, duration, warmup=warmup,
                                  calls=calls,
                                  collect_delays=collect_delays)
