"""Network scenario substrate.

Builds the dense microsensor network the paper studies: node placement
around the base station, channel allocation over the sixteen 2450 MHz
channels, periodic sensing traffic with buffering, sink-tree routing with
per-hop forwarding load (the NET layer), and the assembly of all of it
into a runnable packet-level simulation (for cross-validation of the
analytical model) or into analytical per-channel scenarios.
"""

from repro.network.topology import (TOPOLOGY_KINDS, ClusteredTopologyModel,
                                    DiscTopologyModel, GridTopologyModel,
                                    NetworkTopology, NodePlacement,
                                    StarTopology, StarTopologyModel,
                                    TopologyModel, build_topology_model,
                                    clustered_placement, grid_placement,
                                    uniform_disc_placement)
from repro.network.routing import (ROUTING_KINDS, ForwardingLoad,
                                   ForwardingSource, GradientRouting,
                                   MinHopRouting, RoutingModel, SinkTree,
                                   build_routing_model, depth_breakdown,
                                   make_lane_sources)
from repro.network.traffic import (BufferedTrafficSource, BurstyAlarmTraffic,
                                   MixedPopulation, PeriodicSensingTraffic,
                                   PoissonTraffic, SaturatedTraffic,
                                   TrafficModel, TrafficSource,
                                   build_traffic_model)
from repro.network.channel_allocation import ChannelAllocator, round_robin_allocation
from repro.network.node import SensorNode
from repro.network.scenario import DenseNetworkScenario, ChannelScenario, SimulationSummary
from repro.network.spec import CASE_STUDY_SPEC, ScenarioSpec, adaptive_tx_levels
from repro.network.simulate import aggregate_channel_rows, simulate_network

__all__ = [
    "NodePlacement",
    "StarTopology",
    "NetworkTopology",
    "TopologyModel",
    "StarTopologyModel",
    "GridTopologyModel",
    "DiscTopologyModel",
    "ClusteredTopologyModel",
    "TOPOLOGY_KINDS",
    "build_topology_model",
    "uniform_disc_placement",
    "grid_placement",
    "clustered_placement",
    "RoutingModel",
    "GradientRouting",
    "MinHopRouting",
    "SinkTree",
    "ForwardingLoad",
    "ForwardingSource",
    "ROUTING_KINDS",
    "build_routing_model",
    "depth_breakdown",
    "make_lane_sources",
    "PeriodicSensingTraffic",
    "BufferedTrafficSource",
    "TrafficModel",
    "TrafficSource",
    "SaturatedTraffic",
    "PoissonTraffic",
    "BurstyAlarmTraffic",
    "MixedPopulation",
    "build_traffic_model",
    "ChannelAllocator",
    "round_robin_allocation",
    "SensorNode",
    "DenseNetworkScenario",
    "ChannelScenario",
    "SimulationSummary",
    "ScenarioSpec",
    "CASE_STUDY_SPEC",
    "adaptive_tx_levels",
    "simulate_network",
    "aggregate_channel_rows",
]
