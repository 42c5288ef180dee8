"""The naming contract of the four μSuite services.

Machine, balancer and controller names are not cosmetic: they seed the
``sched:<machine>`` and ``lb:<name>`` RNG streams and key every
telemetry series, so renaming one silently moves every replicated
result.  These tests pin them for each service, unreplicated and with
three controlled mid-tier replicas.
"""

from dataclasses import replace

import pytest

from repro.control import ControlConfig
from repro.loadgen.client import E2E_HIST
from repro.suite import SCALES, SimCluster, build_service

#: Leaf machines in provisioning (= fault leaf-index) order.
LEAVES = {
    "hdsearch": ["hds-leaf0", "hds-leaf1"],
    "router": [
        "router-leaf0r0", "router-leaf0r1", "router-leaf1r0", "router-leaf1r1",
    ],
    "setalgebra": ["sa-leaf0", "sa-leaf1"],
    "recommend": ["rec-leaf0", "rec-leaf1"],
}
PREFIX = {"hdsearch": "hds", "router": "router", "setalgebra": "sa", "recommend": "rec"}


def _build(name, replicas):
    scale = SCALES["unit"]
    scale = replace(
        scale,
        topology=replace(scale.topology, midtier_replicas=replicas),
        control=ControlConfig(
            enabled=True, policy="static", min_replicas=1,
            max_replicas=replicas, initial_replicas=replicas,
        ),
    )
    cluster = SimCluster(seed=0)
    return cluster, build_service(name, cluster, scale)


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("name", sorted(LEAVES))
def test_service_names_are_pinned(name, replicas):
    cluster, service = _build(name, replicas)
    prefix = PREFIX[name]
    mids = (
        [f"{prefix}-mid"] if replicas == 1
        else [f"{prefix}-mid{i}" for i in range(replicas)]
    )
    assert [machine.name for machine in cluster.machines] == LEAVES[name] + mids
    assert service.midtier_names == mids
    assert [leaf.machine.name for leaf in service.leaves] == LEAVES[name]
    if replicas == 1:
        assert service.frontend is None
    else:
        assert service.frontend.name == f"{prefix}-lb"
    (controller,) = cluster.controllers
    assert controller.name == f"{prefix}-ctrl"
    assert controller.signals == [E2E_HIST]
    assert controller.lb is service.frontend
    cluster.shutdown()
