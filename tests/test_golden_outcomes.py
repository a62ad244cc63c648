"""Golden pins of simulated outcomes.

The equivalence suites compare two code paths of the *current* tree with
each other (pruned vs unpruned medium, slab vs legacy engine), and the
legacy engine shares its radio and PHY with ``src/``.  A change that alters
both sides the same way -- a different PER value, a reordered random draw --
passes them.  These pins are absolute: small seeded runs whose per-flow
counts, executed-event count, every radio's :class:`RadioStats`, and every
radio generator's final ``bit_generator.state`` are fixed numbers.

Coverage is chosen so that every decode branch is pinned:

* the seven registered topologies (data frames, jittered Bernoulli decode,
  CCA measurement noise);
* ``use_acks=True`` and ``use_rts_cts=True`` runs (the control-frame SINR
  bonus on ACK/RTS/CTS);
* a :class:`WirelessNetwork` with ``ReceptionModel(deterministic=True)`` and
  ACKs (the deterministic branch on both frame classes);
* a Section 4 testbed network (broadcast pairs on the office layout).

The per-radio record is pinned through a SHA-256 of its exact ``repr``
(floats included) to keep the table readable; the decoded/failed totals ride
alongside so a failure shows which way the outcome moved.

If a change is *meant* to alter simulated outcomes, re-record with
``PYTHONPATH=src python tests/test_golden_outcomes.py`` and say why in the
change description.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

import pytest

from repro.propagation.channel import ChannelModel
from repro.propagation.pathloss import LogDistancePathLoss
from repro.scenarios import Scenario
from repro.simulation.network import RunResult, WirelessNetwork
from repro.simulation.phy import ReceptionModel
from repro.simulation.traffic import SaturatedTraffic
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.layout import generate_office_layout

TOPOLOGY_NAMES = (
    "clustered",
    "exposed_terminal",
    "grid",
    "hidden_terminal",
    "line",
    "scale_free",
    "uniform_disc",
)

Flow = Tuple[Hashable, Hashable]


def _fingerprint(net: WirelessNetwork, outcome: RunResult, flows: Sequence[Flow]) -> Dict[str, Any]:
    flow_rows: List[Tuple[Any, ...]] = []
    for src, dst in flows:
        traffic = net.nodes[src].traffic
        flow_rows.append(
            (
                str(src),
                str(dst),
                outcome.packets_delivered(src, dst),
                getattr(traffic, "packets_sent", -1),
                getattr(traffic, "packets_offered", -1),
            )
        )
    radios = []
    decoded = failed = 0
    for node_id, node in net.nodes.items():
        radio = node.radio
        decoded += radio.stats.frames_decoded
        failed += radio.stats.frames_failed
        radios.append((str(node_id), astuple(radio.stats), radio.rng.bit_generator.state))
    return {
        "events": outcome.events_processed,
        "flows": flow_rows,
        "decoded": decoded,
        "failed": failed,
        "radios_sha256": hashlib.sha256(repr(radios).encode("utf-8")).hexdigest(),
    }


def _scenario_run(**overrides: Any) -> Callable[[], Dict[str, Any]]:
    params: Dict[str, Any] = {
        "n_nodes": 20,
        "extent_m": 120.0,
        "seed": 5,
        "sigma_db": 4.0,
        "duration_s": 0.05,
    }
    params.update(overrides)

    def run() -> Dict[str, Any]:
        scenario = Scenario(name="golden", **params)
        net, placement = scenario.build_network()
        outcome = net.run(scenario.duration_s)
        return _fingerprint(net, outcome, placement.flows)

    return run


def _deterministic_run() -> Dict[str, Any]:
    """Two contending ACKed links plus a hidden sender, deterministic PHY."""
    channel = ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0,
            reference_loss_db=77.0,
        ),
        sigma_db=0.0,
    )
    net = WirelessNetwork(
        channel=channel, seed=3, reception=ReceptionModel(deterministic=True)
    )
    flows = [("A", "B"), ("C", "D"), ("E", "B")]
    positions = {
        "A": (0.0, 0.0), "B": (40.0, 0.0), "C": (60.0, 10.0),
        "D": (100.0, 10.0), "E": (90.0, -5.0),
    }
    senders = dict(flows)
    rates = {"A": 6.0, "C": 24.0, "E": 12.0}
    for node_id, position in positions.items():
        traffic = None
        if node_id in senders:
            traffic = SaturatedTraffic(destination=senders[node_id], payload_bytes=500)
        net.add_node(
            node_id, position, traffic=traffic, rate_mbps=rates.get(node_id),
            use_acks=True,
        )
    outcome = net.run(0.05)
    return _fingerprint(net, outcome, flows)


def _testbed_run() -> Dict[str, Any]:
    """Two broadcast pairs of the office layout under carrier sense."""
    layout = generate_office_layout(seed=7)
    experiment = TestbedExperiment(layout, rates_mbps=(12.0,), run_duration_s=0.05, seed=1)
    ids = sorted(node.node_id for node in layout.nodes)[:4]
    links = [(ids[0], ids[1]), (ids[2], ids[3])]
    net = experiment._build_network(links, 12.0, experiment.cca_threshold_dbm)
    outcome = net.run(experiment.run_duration_s)
    return _fingerprint(net, outcome, links)


RUNS: Dict[str, Callable[[], Dict[str, Any]]] = {
    **{f"topology-{name}": _scenario_run(topology=name) for name in TOPOLOGY_NAMES},
    "acks": _scenario_run(topology="uniform_disc", use_acks=True, rate_mbps=12.0),
    "rts-cts": _scenario_run(
        topology="clustered", use_acks=True, use_rts_cts=True, rate_mbps=24.0,
        payload_bytes=600,
    ),
    "deterministic": _deterministic_run,
    "testbed": _testbed_run,
}


GOLDEN: Dict[str, Dict[str, Any]] = {
    "acks": {
        "events": 1140,
        "flows": [
            ("n000", "n001", 20, 20, 21),
            ("n002", "n003", 34, 34, 35),
            ("n004", "n005", 14, 14, 15),
            ("n006", "n007", 18, 18, 19),
            ("n008", "n009", 9, 9, 10),
            ("n010", "n011", 26, 26, 27),
            ("n012", "n013", 32, 32, 33),
            ("n014", "n015", 28, 28, 29),
            ("n016", "n017", 6, 6, 7),
            ("n018", "n019", 4, 4, 5),
        ],
        "decoded": 1031,
        "failed": 365,
        "radios_sha256": "c951e1503d72a90086bd75d67826a1e3a9b49a34fe2a7baf41bfd442cc77ed6d",
    },
    "deterministic": {
        "events": 603,
        "flows": [
            ("A", "B", 27, 27, 28),
            ("C", "D", 41, 41, 42),
            ("E", "B", 2, 4, 5),
        ],
        "decoded": 516,
        "failed": 35,
        "radios_sha256": "43c925e6ee88175d1453307e886c48732a4194e1ea6c898c7a09b11c24bb9ec1",
    },
    "rts-cts": {
        "events": 1221,
        "flows": [
            ("n000", "n001", 38, 38, 39),
            ("n002", "n005", 1, 1, 2),
            ("n006", "n007", 0, 0, 1),
            ("n010", "n015", 0, 0, 1),
            ("n004", "n011", 0, 0, 1),
            ("n013", "n017", 44, 44, 45),
            ("n003", "n008", 0, 0, 1),
            ("n009", "n012", 0, 0, 1),
            ("n014", "n016", 52, 51, 52),
        ],
        "decoded": 6166,
        "failed": 857,
        "radios_sha256": "4bac85634532b6269b0275069be37d196b770b34cc34015cd8e2c3a2ba6dbda7",
    },
    "testbed": {
        "events": 188,
        "flows": [
            ("n00", "n01", 24, 24, 25),
            ("n02", "n03", 23, 23, 24),
        ],
        "decoded": 123,
        "failed": 18,
        "radios_sha256": "8ee676c03b6c095560827d3324ee5d81b6e03dd462e43383c25d2c6c9073785d",
    },
    "topology-clustered": {
        "events": 254,
        "flows": [
            ("n000", "n001", 2, 2, 3),
            ("n002", "n005", 3, 3, 4),
            ("n006", "n007", 5, 5, 6),
            ("n010", "n015", 1, 8, 9),
            ("n004", "n011", 6, 6, 7),
            ("n013", "n017", 15, 15, 16),
            ("n003", "n008", 5, 5, 6),
            ("n009", "n012", 3, 3, 4),
            ("n014", "n016", 1, 1, 2),
        ],
        "decoded": 330,
        "failed": 100,
        "radios_sha256": "b0340688ed98d84fda0b2234b22cb328a9d12c568299c1834b9295e0b5845e30",
    },
    "topology-exposed_terminal": {
        "events": 299,
        "flows": [
            ("n000", "n001", 8, 8, 9),
            ("n002", "n003", 7, 7, 8),
            ("n004", "n005", 2, 2, 3),
            ("n006", "n007", 6, 6, 7),
            ("n008", "n009", 3, 3, 4),
            ("n010", "n011", 2, 2, 3),
            ("n012", "n013", 5, 5, 6),
            ("n014", "n015", 3, 3, 4),
            ("n016", "n017", 5, 5, 6),
            ("n018", "n019", 7, 7, 8),
        ],
        "decoded": 335,
        "failed": 92,
        "radios_sha256": "ce266bde17c08dc8e7a454bc83aa87a49eb7cba3ac3f43a87e74d984356df0dc",
    },
    "topology-grid": {
        "events": 297,
        "flows": [
            ("n000", "n001", 10, 11, 12),
            ("n002", "n003", 7, 7, 8),
            ("n004", "n005", 0, 6, 7),
            ("n006", "n007", 1, 3, 4),
            ("n008", "n009", 1, 3, 4),
            ("n010", "n011", 2, 10, 11),
            ("n012", "n013", 4, 4, 5),
            ("n014", "n015", 1, 9, 10),
            ("n016", "n017", 3, 3, 4),
            ("n018", "n019", 4, 4, 5),
        ],
        "decoded": 217,
        "failed": 211,
        "radios_sha256": "8a56f1ba1902066407b14732299e658fd1f71aabfb0d8d832bfdfa715555beae",
    },
    "topology-hidden_terminal": {
        "events": 411,
        "flows": [
            ("n000", "n002", 0, 15, 16),
            ("n001", "n002", 7, 17, 18),
            ("n003", "n005", 0, 6, 7),
            ("n004", "n005", 0, 2, 3),
            ("n006", "n008", 0, 3, 4),
            ("n007", "n008", 1, 6, 7),
            ("n009", "n011", 0, 6, 7),
            ("n010", "n011", 0, 4, 5),
            ("n012", "n014", 0, 7, 8),
            ("n013", "n014", 4, 10, 11),
            ("n015", "n017", 0, 8, 9),
            ("n016", "n017", 2, 5, 6),
        ],
        "decoded": 208,
        "failed": 141,
        "radios_sha256": "6485aad467714cbf65ff67f933c07827bcb07fd1f1525f94b7f3f50f42a96cd0",
    },
    "topology-line": {
        "events": 252,
        "flows": [
            ("n000", "n001", 7, 7, 8),
            ("n002", "n003", 8, 8, 9),
            ("n004", "n005", 3, 3, 4),
            ("n006", "n007", 6, 6, 7),
            ("n008", "n009", 0, 0, 1),
            ("n010", "n011", 1, 1, 2),
            ("n012", "n013", 3, 3, 4),
            ("n014", "n015", 6, 6, 7),
            ("n016", "n017", 6, 6, 7),
            ("n018", "n019", 9, 9, 10),
        ],
        "decoded": 373,
        "failed": 57,
        "radios_sha256": "c450a54bb63d87bb5f0a7f44ad8378b4b2ae6e298ebe7b4330d9e5a3f131e4d2",
    },
    "topology-scale_free": {
        "events": 536,
        "flows": [
            ("n001", "n000", 4, 4, 5),
            ("n002", "n000", 3, 3, 4),
            ("n003", "n000", 3, 3, 4),
            ("n004", "n002", 1, 1, 2),
            ("n005", "n000", 4, 4, 5),
            ("n006", "n000", 2, 2, 3),
            ("n007", "n000", 1, 1, 2),
            ("n008", "n002", 2, 2, 3),
            ("n009", "n000", 0, 0, 1),
            ("n010", "n000", 1, 1, 2),
            ("n011", "n006", 0, 0, 1),
            ("n012", "n000", 1, 1, 2),
            ("n013", "n002", 2, 2, 3),
            ("n014", "n005", 0, 0, 1),
            ("n015", "n000", 0, 0, 1),
            ("n016", "n000", 0, 0, 1),
            ("n017", "n012", 0, 0, 1),
            ("n018", "n003", 1, 1, 2),
            ("n019", "n000", 0, 0, 1),
        ],
        "decoded": 475,
        "failed": 0,
        "radios_sha256": "0eadee97c1b2a8340867466b78152ebccc07ef7ac74daca66f2a50532dfaef37",
    },
    "topology-uniform_disc": {
        "events": 390,
        "flows": [
            ("n000", "n001", 9, 9, 10),
            ("n002", "n003", 17, 17, 18),
            ("n004", "n005", 6, 6, 7),
            ("n006", "n007", 12, 12, 13),
            ("n008", "n009", 6, 6, 7),
            ("n010", "n011", 12, 12, 13),
            ("n012", "n013", 14, 14, 15),
            ("n014", "n015", 16, 16, 17),
            ("n016", "n017", 5, 5, 6),
            ("n018", "n019", 5, 5, 6),
        ],
        "decoded": 254,
        "failed": 74,
        "radios_sha256": "5b159a137e8e8b1dd3c9e85b48d0658e8e80e45c7a99db426939351f749dc9da",
    },
}


def test_every_run_is_pinned():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outcome_matches_golden(name):
    assert RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: RUNS[name]() for name in sorted(RUNS)}, width=100, sort_dicts=False)
