"""Numpy-free constants shared by the model layers and the registry schemas.

Each value here has exactly one definition.  The modules that own the
concept re-export it under its historical name
(``repro.network.topology.TOPOLOGY_KINDS``,
``repro.network.scenario.ChannelScenario.BACKENDS``,
``repro.contention.tables.PAPER_SEED``, ...), and the experiment registry
(:mod:`repro.runner.drivers`) declares its parameter choices from this
module, so building the registry never imports the model or numpy.  Keep
this module a leaf: standard-library literals only, no imports.
"""

#: The project's canonical master seed (the paper's publication year).
#: ``repro.experiments.common.EXPERIMENT_SEED`` and
#: ``repro.runner.engine.DEFAULT_SEED`` both alias it.
PAPER_SEED = 2005

#: Grid axes of the shared contention characterisation (covers every paper
#: figure): normalised loads and on-air packet sizes [bytes].
TABLE_LOADS = (0.05, 0.1, 0.2, 0.3, 0.42, 0.5, 0.6, 0.75, 0.9)
TABLE_SIZES = (20, 33, 63, 93, 113, 133)

#: Registered topology-model kinds, in the order ``build_topology_model``
#: accepts them (the ``topology`` experiment parameter's choices).
TOPOLOGY_KINDS = ("star", "grid", "disc", "cluster")

#: Registered routing-model kinds, in the order ``build_routing_model``
#: accepts them (the ``routing`` experiment parameter's choices).
ROUTING_KINDS = ("gradient", "min_hop")

#: Registered traffic-model kinds, in the order ``build_traffic_model``
#: accepts them (the ``traffic_model`` experiment parameter's choices).
TRAFFIC_MODEL_KINDS = ("saturated", "periodic", "poisson", "bursty", "mixed")

#: Simulation backends accepted by ``ChannelScenario.run`` (the
#: ``backend`` experiment parameter's choices).
SCENARIO_BACKENDS = ("batched", "event")
