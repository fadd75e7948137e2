#!/usr/bin/env python
"""Why tit-for-tat fails in collaboration networks (the paper's motivation).

Tit-for-tat works where relations are *direct* and repeated: a source
serves you because you served it before — which is why BitTorrent uses
it.  This script steps the engine's own tit-for-tat baseline
(``scheme="tft"``: each source splits its upload bandwidth by what each
downloader has personally served it) at a sparse request rate close to
the paper's ``P = 1/N_S``, then reads the private histories the scheme
kept (``sim.scheme.given[i, j]``: bandwidth peer ``i`` served peer ``j``).

Part 1 measures relation directness: how many ordered peer pairs ever
exchanged bandwidth, and how many of those were served back?

Part 2 quantifies the information gap: a private history can price only
the requesters it has met, while a shared-history reputation rates every
peer.

    python examples/tft_vs_reputation.py
"""

import numpy as np

from repro.sim import SimulationConfig
from repro.sim.engine import CollaborationSimulation

N_PEERS = 100
STEPS = 400


def tft_history() -> np.ndarray:
    """Step a tft run and return its ``(N, N)`` direct-experience matrix."""
    config = SimulationConfig(
        n_agents=N_PEERS,
        scheme="tft",
        # Nearly every peer shares, so 1/N_S is about 1/N.
        download_probability=1.0 / N_PEERS,
        training_steps=STEPS,
        eval_steps=1,
        seed=1,
    )
    sim = CollaborationSimulation(config)
    for _ in range(STEPS):
        sim.step(config.t_train)
    return sim.scheme.given


def part1_directness(given: np.ndarray) -> None:
    print("== Part 1: relation directness in the collaboration workload ==")
    served = given > 0.0
    np.fill_diagonal(served, False)
    n_pairs = N_PEERS * (N_PEERS - 1)
    with_history = int(served.sum())
    reciprocated = int((served & served.T).sum())
    print(f"  {STEPS} steps at P = 1/N, {N_PEERS} peers")
    print(f"  ordered pairs with any direct history: "
          f"{with_history} of {n_pairs} ({with_history / n_pairs:.1%})")
    share = reciprocated / with_history if with_history else 0.0
    print(f"  of those, served back                : {reciprocated} ({share:.1%})")
    print("  -> almost no pair ever reciprocates, and editing/voting exchange"
          "\n     *different* resources entirely — TFT cannot price a vote"
          "\n     against an upload.\n")


def part2_information_gap(given: np.ndarray) -> None:
    print("== Part 2: private vs shared history coverage ==")
    # A source j prices requester i by given[i, j]: what i served j.
    known = (given > 0.0).sum(axis=0)
    print(f"  requesters a tft source can price: mean {known.mean():.2f}, "
          f"max {known.max()} of {N_PEERS - 1}")
    print(f"  private-history coverage of ordered peer pairs: "
          f"{known.sum() / (N_PEERS * (N_PEERS - 1)):.1%}")
    print("  a shared-history reputation covers 100% by construction")
    print("  -> the scheme's shared reputation lets a peer price a stranger's"
          "\n     request; a TFT peer has to treat it as a first contact.")


def main() -> None:
    given = tft_history()
    part1_directness(given)
    part2_information_gap(given)


if __name__ == "__main__":
    main()
