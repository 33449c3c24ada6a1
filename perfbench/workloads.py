"""The benchmark's workloads: what each one builds from a seed.

Every workload turns ``--seed`` into a corpus on disk (the set-up the
benchmark times) and names the seeds it was tuned on.  The program under
test only ever sees the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"scenario"`` (the CENIC-like campaign simulator), ``"fleet"``
    #: (the streaming fleet corpus generator) or ``"tenant"`` (a scenario
    #: profile fed live through ``repro serve``).
    kind: str
    default_seed: int
    heldout_seed: int
    #: Campaign length for ``scenario``/``tenant``; corpus horizon for fleet.
    days: float
    #: Scenario only: end the archive at this many LSPs (0 keeps all).
    lsp_limit: int = 0
    #: Fleet only: ``repro.fleet.preset("fleet", ...)`` overrides.
    fleet: Optional[Dict[str, float]] = None
    #: Tenant only: open-loop send rate, lines per second.
    rate: float = 0.0

    @property
    def batch(self) -> bool:
        return self.kind != "tenant"


#: A run sets up twice, analyses for ``--seconds`` and checks one reference,
#: so the corpora are sized for runs of about half a minute.  Each workload
#: does the same work at every seed (``child._cut`` fixes the campaign's LSP
#: count, the tenant feed is ``seconds x rate`` lines), so that a spread
#: across seeds measures the host and the program, not the corpus.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-campaign",
            kind="scenario",
            default_seed=2013,
            heldout_seed=7,
            days=75.0,
            lsp_limit=10_000,
        ),
        Workload(
            name="fleet-chatter",
            kind="fleet",
            default_seed=7,
            heldout_seed=11,
            days=7.0,
            fleet={
                "pods": 100,
                "chatter_per_router_day": 60.0,
                "lsp_refresh_interval": 86400.0,
            },
        ),
        Workload(
            name="tenant-replay",
            kind="tenant",
            default_seed=2013,
            heldout_seed=7,
            days=120.0,
            rate=1300.0,
        ),
    )
}

#: The campaign workloads all run on the one CENIC-like network the
#: simulator builds at seed 2013, as the paper's campaign ran on one
#: network; ``--seed`` draws the failures, outages and tickets.  Left to
#: follow the seed, the topology moved the cost of a 10,000-LSP analysis
#: by 12% across four seeds, against 4% on this one network.
CENIC_TOPOLOGY_SEED = 2013

#: ``sha256(analysis_signature(run_analysis(dataset)))`` of the scalar
#: reference pipeline at the default and held-out seeds, so those runs
#: skip the untimed reference analysis.  Any other seed computes it.
#: They pin the workload definitions above: changing a corpus spec means
#: recording them again.
REFERENCE_DIGESTS: Dict[Tuple[str, int], str] = {
    ("paper-campaign", 2013): "7b80442b451d552b6ff08760805bda2583b476e0a593a39a4d394ff98fb6b6ac",
    ("paper-campaign", 7): "2312c69430eb4f591a09056342e600ae4dab6bd819ebc94d95569bd40d93870b",
    ("fleet-chatter", 7): "6c3e62846e756358d41035321c407062649452d1fd0c140bd2be262b22ec3da9",
    ("fleet-chatter", 11): "283515a472f60fbb8ee7a7e4009803e6e912f195c15761b44a58e350d5714a8e",
}


def fleet_spec(workload: Workload, seed: int):
    from repro.fleet import preset

    return preset(
        "fleet", seed=seed, duration_days=workload.days, **workload.fleet
    )


def network_for(workload: Workload, seed: int):
    """The topology ``Dataset.load`` needs, rebuilt the way the CLI does."""
    if workload.kind == "fleet":
        from repro.fleet import build_network

        return build_network(fleet_spec(workload, seed))
    from repro.topology.cenic import CenicParameters, build_cenic_like_network

    return build_cenic_like_network(CenicParameters(seed=CENIC_TOPOLOGY_SEED))


def run_campaign(workload: Workload, seed: int):
    """``run_scenario(ScenarioConfig(seed, duration_days))`` on the
    CENIC-like network of ``CENIC_TOPOLOGY_SEED``."""
    from repro.simulation.scenario import ScenarioConfig, ScenarioRunner

    network = network_for(workload, seed)

    class OnCenic(ScenarioRunner):
        def network(self):
            return network

    return OnCenic(ScenarioConfig(seed=seed, duration_days=workload.days)).run()
