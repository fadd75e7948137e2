"""Behaviour lock: committed digests of engine state and sweep summaries.

A small corpus of short runs — the four schemes plain, each scheme under
churn with both adversary kernels, the sparse scale path at small N and
a mixed-config three-lane batch — is fingerprinted bit for bit:

* the full end-of-run state (:func:`repro.sim.testing.state_fingerprint`)
  of each corpus entry, run solo or as its one lane batch;
* every article of every lane of each entry: quality, version count,
  constructive/destructive accepted counts and the voters in gather
  order (the state digest cannot see a voter order it does not store);
* the same state after a snapshot round trip: each entry pickled at
  step :data:`RESUME_AT`, restored in one fresh process and run to the
  end there;
* every summary :func:`run_sweep` returns for the flattened corpus,
  under the serial and the thread executor.

Any drift fails.  Float kernels may round differently on other NumPy
builds or SIMD paths, so digests are keyed on the NumPy version plus a
probe digest of the float kernels the engine calls; where no digest is
recorded for the running environment the tests skip and say so.

The run store's keys are pinned too, independent of the environment:
the :func:`~repro.store.config_hash` of every corpus config, and one
digest per registered scenario pack over the hashes of its configs
(full and ``fast`` expansions).  A config refactor that changed any key
would orphan every stored run.

An intentional re-baseline regenerates the file (``python -m
tests.sim.test_golden``) and says why in the same change.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.sim.config import ScaleConfig, SimulationConfig
from repro.sim.engine import BatchedSimulation, CollaborationSimulation
from repro.sim.phases import step_state
from repro.sim.testing import state_fingerprint
from repro.sim._sweep import run_sweep
from repro.store import config_hash, get_scenario, iter_scenarios

DIGESTS = Path(__file__).with_name("golden_digests.json")
REPO = Path(__file__).resolve().parents[2]

#: Step at which the snapshot-resume test pickles every corpus entry.
RESUME_AT = 20


def _base(**overrides) -> SimulationConfig:
    params = dict(
        n_agents=16, n_articles=4, founders_per_article=2,
        training_steps=30, eval_steps=20, seed=11,
    )
    params.update(overrides)
    return SimulationConfig(**params)


#: Churn with whitewashing plus both adversary kernels; the scheme is
#: left at its default (reputation) or set per corpus entry.
_CHURN_ADVERSARIES = dict(
    seed=12, leave_rate=0.05, join_rate=0.3, whitewash_rate=0.02,
    collusion_fraction=0.25, sybil_fraction=0.125, sybil_rate=0.1,
)

#: name -> configs; a single config runs solo, several run as one
#: mixed-config lane batch.
CORPUS: dict[str, list[SimulationConfig]] = {
    "scheme-reputation": [_base(scheme="reputation")],
    "scheme-none": [_base(scheme="none")],
    "scheme-tft": [_base(scheme="tft")],
    "scheme-karma": [_base(scheme="karma")],
    "churn-adversaries": [_base(**_CHURN_ADVERSARIES)],
    **{
        f"churn-adversaries-{scheme}": [_base(scheme=scheme, **_CHURN_ADVERSARIES)]
        for scheme in ("none", "tft", "karma")
    },
    "sparse-scale": [
        _base(
            seed=13, n_agents=24, scheme="tft",
            scale=ScaleConfig(
                sparse=True, ledger_cap=4, chunk_size=5,
                stream_metrics_threshold=16,
            ),
        )
    ],
    "lanes-mixed": [
        _base(seed=21),
        _base(seed=22, t_eval=0.5, edit_attempt_prob=0.15),
        _base(
            seed=23, mix=PopulationMix(0.5, 0.25, 0.25),
            download_probability=0.6, leave_rate=0.05, join_rate=0.2,
        ),
    ],
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\0")
    return h.hexdigest()


def kernel_probe() -> str:
    """Digest of the float kernels the engine relies on, over fixed inputs."""
    x = np.linspace(-30.0, 30.0, 1201)
    noise = np.random.default_rng(2008).random(4099)
    outputs = [
        np.exp(x), np.log(np.abs(x) + 1e-3), np.sqrt(np.abs(x)),
        np.power(np.abs(x), 0.7), np.cumsum(noise),
        np.asarray([noise.sum(), noise.mean(), (noise * noise).sum()]),
    ]
    return _sha(out.tobytes() for out in outputs)[:16]


ENV_KEY = f"numpy {np.__version__} / probe {kernel_probe()}"


def fingerprint_digest(fp: dict[str, np.ndarray]) -> str:
    """sha256 over every (path, dtype, shape, bytes) of a state fingerprint."""

    def chunks():
        for path in sorted(fp):
            arr = np.asarray(fp[path])
            yield path
            yield f"{arr.dtype.str}{arr.shape}"
            yield (
                repr(arr.tolist()) if arr.dtype.kind == "O"
                else np.ascontiguousarray(arr).tobytes()
            )

    return _sha(chunks())


def article_rows(state):
    """``(lane, article, quality, versions, good, bad, voters)`` per article.

    ``voters`` are the article's voting-right holders in gather order,
    the order the edit-vote phase reads them in.
    """
    store = state.articles
    for r in range(store.n_lanes):
        for a in range(store.n_articles):
            row = store.row(r, a)
            yield (
                r, a, store.quality[row], store.n_versions[row],
                store.n_constructive[row], store.n_destructive[row],
                store.voters(r, a),
            )


def article_digest(state) -> str:
    """sha256 over every article row of every lane (:func:`article_rows`)."""
    return _sha(
        chunk
        for r, a, quality, versions, good, bad, voters in article_rows(state)
        for chunk in (
            f"{r}/{a}", repr(float(quality)), int(versions), int(good),
            int(bad), np.asarray(voters, dtype=np.int64).tobytes(),
        )
    )


def summary_digest(result) -> str:
    """sha256 over a result's eval and training summaries (exact reprs)."""
    return _sha(
        repr(sorted(part.items()))
        for part in (result.summary, result.training_summary)
    )


def run_state(configs: list[SimulationConfig]):
    """Run one corpus entry to completion; return its final state."""
    sim = (
        CollaborationSimulation(configs[0]) if len(configs) == 1
        else BatchedSimulation(configs)
    )
    sim.run()
    return sim.state


def advance(state, start: int, stop: int) -> None:
    """Steps ``[start, stop)`` of the engine protocol on ``state``.

    The same sequence ``CollaborationSimulation.run`` drives: training
    steps, the reputation reset at the phase boundary, evaluation steps.
    """
    cfg = state.config
    for step in range(start, stop):
        if step < cfg.training_steps:
            step_state(state, state.lanes.t_train, learn=True)
        else:
            step_state(state, state.lanes.t_eval, learn=cfg.learn_during_eval)
        if step + 1 == cfg.training_steps:
            state.scheme.reset_reputations()


def sweep_slots() -> list[tuple[str, SimulationConfig]]:
    """The flattened corpus, each config labelled ``name[lane]``."""
    return [
        (f"{name}[{i}]", cfg)
        for name, configs in CORPUS.items()
        for i, cfg in enumerate(configs)
    ]


def corpus_config_hashes() -> dict[str, str]:
    """Store key of every corpus config, by sweep-slot label."""
    return {label: config_hash(cfg) for label, cfg in sweep_slots()}


def pack_digest(pack) -> str:
    """sha256 over the store keys of a pack's full and fast expansions."""
    return _sha(
        config_hash(cfg) for fast in (False, True) for cfg in pack.expand(fast=fast)
    )


def pinned_config_hashes() -> dict:
    return json.loads(DIGESTS.read_text())["config_hashes"]


def recorded() -> dict:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = table.get(ENV_KEY)
    if entry is None:
        pytest.skip(
            f"no golden digests recorded for {ENV_KEY!r} (float kernels "
            f"may round differently here); record with "
            f"`python -m tests.sim.test_golden`"
        )
    return entry


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_state_fingerprint_unchanged(name):
    expected = recorded()["state"][name]
    assert fingerprint_digest(state_fingerprint(run_state(CORPUS[name]))) == expected


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_article_digest_unchanged(name):
    expected = recorded()["articles"][name]
    assert article_digest(run_state(CORPUS[name])) == expected


def test_snapshot_resume_matches_uninterrupted(tmp_path):
    """Pickle every entry at RESUME_AT; a fresh process finishes them all."""
    straight = {
        name: fingerprint_digest(state_fingerprint(run_state(configs)))
        for name, configs in CORPUS.items()
    }
    for name, configs in CORPUS.items():
        state = (
            CollaborationSimulation(configs[0]).state if len(configs) == 1
            else BatchedSimulation(configs).state
        )
        advance(state, 0, RESUME_AT)
        (tmp_path / f"{name}.pkl").write_bytes(pickle.dumps(state))
    code = (
        "import json, pickle, sys\n"
        "from pathlib import Path\n"
        "from repro.sim.testing import state_fingerprint\n"
        "from tests.sim.test_golden import RESUME_AT, advance, fingerprint_digest\n"
        "out = {}\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.pkl')):\n"
        "    state = pickle.loads(path.read_bytes())\n"
        "    advance(state, RESUME_AT, state.config.total_steps)\n"
        "    out[path.stem] = fingerprint_digest(state_fingerprint(state))\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, cwd=REPO, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == straight


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_sweep_summaries_unchanged(executor):
    expected = recorded()["summaries"]
    slots = sweep_slots()
    results = run_sweep([cfg for _, cfg in slots], backend=executor, workers=2)
    got = {label: summary_digest(r) for (label, _), r in zip(slots, results)}
    assert got == expected


def test_corpus_config_hashes_unchanged():
    assert corpus_config_hashes() == pinned_config_hashes()["corpus"]


def test_scenario_pack_config_hashes_unchanged():
    expected = pinned_config_hashes()["scenarios"]
    got = {name: pack_digest(get_scenario(name)) for name in expected}
    assert got == expected


def record() -> None:
    """Compute this environment's digests and merge them into the file."""
    slots = sweep_slots()
    results = run_sweep([cfg for _, cfg in slots], backend="serial")
    states = {name: run_state(configs) for name, configs in sorted(CORPUS.items())}
    entry = {
        "state": {
            name: fingerprint_digest(state_fingerprint(state))
            for name, state in states.items()
        },
        "articles": {name: article_digest(state) for name, state in states.items()},
        "summaries": {
            label: summary_digest(r) for (label, _), r in zip(slots, results)
        },
    }
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[ENV_KEY] = entry
    table["config_hashes"] = {
        "corpus": corpus_config_hashes(),
        "scenarios": {pack.name: pack_digest(pack) for pack in iter_scenarios()},
    }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {ENV_KEY!r} -> {DIGESTS}")


if __name__ == "__main__":
    record()
