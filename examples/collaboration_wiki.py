#!/usr/bin/env python
"""A decentralised wiki under attack: quality protection in action.

Scenario: a P2P encyclopedia with a healthy constructive majority and a
vandal minority.  The script runs the full incentive scheme (edit gate,
weighted voting, punishments) with event logging and reports how the
scheme protects article quality:

* what fraction of constructive vs destructive edits were accepted,
* how many vandals lost their voting rights,
* how article quality evolved,
* who ended up with which reputation.

    python examples/collaboration_wiki.py
"""

import numpy as np

from repro.agents.population import PopulationMix
from repro.network.peer import ALTRUISTIC, IRRATIONAL, RATIONAL, TYPE_NAMES
from repro.sim import base_config
from repro.sim.engine import CollaborationSimulation


def main() -> None:
    config = base_config(
        fast=True,
        mix=PopulationMix(rational=0.4, altruistic=0.4, irrational=0.2),
        collect_events=True,
        edit_attempt_prob=0.15,
        seed=7,
    )
    print("decentralised wiki:", config.mix.describe())
    sim = CollaborationSimulation(config)
    result = sim.run()
    s = result.summary

    print("\n-- edit outcomes (evaluation window) --")
    for code in (RATIONAL, ALTRUISTIC, IRRATIONAL):
        name = TYPE_NAMES[code]
        good = s[f"edits_constructive_{name}"]
        bad = s[f"edits_destructive_{name}"]
        rate = s[f"edit_accept_rate_{name}"]
        print(f"  {name:10s}: {good:4.0f} constructive / {bad:4.0f} destructive "
              f"proposals, accept rate {rate:.2f}" if good + bad else
              f"  {name:10s}: no edit proposals (blocked by the theta gate)")
    print(f"  constructive edits accepted: {s['accepted_constructive_rate']:.2f}")
    print(f"  destructive edits accepted : {s['accepted_destructive_rate']:.2f}")

    print("\n-- punishment (evaluation phase only) --")
    # Training-phase punishments hit randomly exploring rational agents and
    # are part of the learning signal; the interesting picture is the
    # converged evaluation phase.
    eval_start = config.training_steps
    bans = [
        p
        for p in result.events.punishments
        if p.kind == "vote_ban" and p.step >= eval_start
    ]
    resets = [
        p
        for p in result.events.punishments
        if p.kind == "reputation_reset" and p.step >= eval_start
    ]
    ban_types = np.array([sim.peers.types[p.peer_id] for p in bans], dtype=int)
    print(f"  vote bans          : {len(bans)} "
          f"({(ban_types == IRRATIONAL).sum()} hit vandals)")
    print(f"  reputation resets  : {len(resets)}")

    print("\n-- article quality --")
    qualities = sim.articles.quality
    print(f"  total quality change: {qualities.sum():+.0f} over "
          f"{sim.articles.n_articles} articles")
    print(f"  improved articles   : {(qualities > 0).sum()}")
    print(f"  damaged articles    : {(qualities < 0).sum()}")

    print("\n-- final reputations --")
    rep_s = sim.scheme.reputation_s()
    rep_e = sim.scheme.reputation_e()
    for code in (RATIONAL, ALTRUISTIC, IRRATIONAL):
        mask = sim.peers.types == code
        print(f"  {TYPE_NAMES[code]:10s}: R_S = {rep_s[mask].mean():.3f}, "
              f"R_E = {rep_e[mask].mean():.3f}")

    print("\nThe constructive camp keeps its grip on the voter pools, vandals"
          "\nlose voting rights and their edits stay locked out — the quality"
          "\nmechanism of section III-C working end to end.")


if __name__ == "__main__":
    main()
