"""Lane-axis parameterization: heterogeneous configs in one batched state.

PR 2 introduced a *replicate* axis — ``R`` seed-varied copies of one
config stepped in lock-step.  This module generalizes it into a **lane**
axis: the ``R`` stacked populations may now carry *different* configs, as
long as they agree on the **structural dimensions** that fix array shapes
and code paths (:data:`STRUCTURAL_FIELDS`).  Everything else —
temperatures, scheme constants, population mixes, churn rates, adversary
knobs, per-scheme parameters — is lifted into per-lane ``(R,)`` or
per-slot ``(R * N,)`` parameter arrays threaded through the phase kernels
and incentive ledgers.

Bit-identity is preserved lane for lane because every lifted parameter is
consumed **elementwise** (or gathered per slot/proposal/request): lane
``r``'s slots see exactly the scalar values a sequential run of lane
``r``'s config would use, combined by the same floating-point operations
in the same order.  Random draws are counter-based hashes of the lane's
own key and lane-local indices (:mod:`repro.sim.rng`), so they are
elementwise too.

Uniform batches (all lanes sharing a value) keep plain Python scalars so
the homogeneous fast path executes the exact pre-lane instruction
sequence with zero broadcasting overhead; :func:`lane_values` /
:func:`slot_values` collapse to a scalar whenever possible, and
:func:`take` makes gather sites transparent to which form they got.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.params import gather_param
from .config import SimulationConfig

__all__ = [
    "STRUCTURAL_FIELDS",
    "structural_key",
    "assert_lane_compatible",
    "estimate_lane_state_bytes",
    "lane_values",
    "slot_values",
    "rational_values",
    "take",
    "LaneParams",
    "build_lane_params",
    "lane_constants",
]

#: Config fields every lane of one batch must share: they size arrays
#: (agents, articles, Q-states), pick code paths (scheme class, overlay
#: kind, edit gate) or drive the shared protocol loop (step counts,
#: learning flag).  ``resolved_scheme`` is compared separately so
#: ``scheme="auto"`` batches with its concrete spelling.  Event
#: collection is per lane (each lane owns its log), so it is not here.
STRUCTURAL_FIELDS: tuple[str, ...] = (
    "n_agents",
    "n_articles",
    "founders_per_article",
    "n_states",
    "training_steps",
    "eval_steps",
    "learn_during_eval",
    "overlay_kind",
    "enforce_edit_threshold",
    "reputation_fn_s",
    "reputation_fn_e",
)


def _exact_tft(config: SimulationConfig) -> bool | None:
    """Whether a tft ``config`` keeps the dense history; ``None`` for other schemes.

    The tft storage is structural: one batch holds one storage, so exact
    and capped lanes never share a batch (a full-width exact lane would
    widen every capped row to N - 1).  Int caps lift per lane like any
    other scheme knob (the ledger allocates the widest cap and evicts
    each row at its own).
    """
    if config.resolved_scheme != "tft":
        return None
    return config.tft_ledger_cap is None


def structural_key(config: SimulationConfig) -> tuple:
    """Hashable batch-compatibility key: configs batch iff keys match."""
    return tuple(getattr(config, f) for f in STRUCTURAL_FIELDS) + (
        config.resolved_scheme,
        _exact_tft(config),
    )


def assert_lane_compatible(configs: Sequence[SimulationConfig]) -> None:
    """Raise ``ValueError`` naming the structural fields that differ."""
    key = structural_key(configs[0])
    for other in configs[1:]:
        if structural_key(other) == key:
            continue
        bad = [
            f
            for f in STRUCTURAL_FIELDS
            if getattr(other, f) != getattr(configs[0], f)
        ]
        if configs[0].resolved_scheme != other.resolved_scheme:
            bad.append("scheme")
        elif _exact_tft(other) != _exact_tft(configs[0]):
            bad.append("tft_ledger_cap (None against an int)")
        raise ValueError(
            "lane configs must share the structural dimensions; "
            f"these differ: {', '.join(bad)}"
        )


#: Rough per-slot float64 array count across peers, schemes, scratch and
#: phase-context buffers (state.py allocates ~30 such vectors; round up).
_PER_SLOT_ARRAYS = 40
#: Per-step series rows the metrics collector keeps (``(R, steps)``
#: float64 each, counting the two ``(R, steps, 3, 2)`` count cubes as 12).
_METRIC_SERIES = 32


def estimate_lane_state_bytes(config: SimulationConfig) -> int:
    """Estimated resident bytes one lane of ``config`` adds to a batch.

    Deliberately coarse (within ~2x): it only needs to stop the lane
    planner from stacking thousands of ``(N, N)`` tit-for-tat matrices —
    the lane-width memory hazard — not to model the allocator.  Counts
    the per-slot vectors, the scheme's pairwise state (quadratic dense,
    ``N * cap`` capped) and the per-step metric series.
    """
    n = config.n_agents
    bytes_ = _PER_SLOT_ARRAYS * 8 * n
    if config.resolved_scheme == "tft":
        if config.tft_ledger_cap is not None:
            cap = min(config.tft_ledger_cap, max(n - 1, 1))
            bytes_ += n * cap * 16  # int64 partner + float64 amount
        else:
            bytes_ += n * n * 8
    bytes_ += _METRIC_SERIES * 8 * config.total_steps
    return bytes_


def _collapse(values: list, dtype) -> Any:
    """Scalar if every entry equals the first, else an array of ``dtype``."""
    first = values[0]
    if all(v == first for v in values[1:]):
        return first
    return np.asarray(values, dtype=dtype)


def lane_values(
    configs: Sequence[Any], attr: str, dtype=np.float64
) -> float | np.ndarray:
    """Per-lane ``(R,)`` values of one attribute (scalar when uniform)."""
    return _collapse([getattr(c, attr) for c in configs], dtype)


def slot_values(
    configs: Sequence[Any], attr: str, n_agents: int, dtype=np.float64
) -> float | np.ndarray:
    """Per-slot ``(R * N,)`` expansion of a per-lane attribute."""
    out = lane_values(configs, attr, dtype)
    if isinstance(out, np.ndarray):
        out = np.repeat(out, n_agents)
    return out


def rational_values(
    configs: Sequence[SimulationConfig],
    attr: str,
    n_agents: int,
    rational_idx: np.ndarray,
    dtype=np.float64,
) -> float | np.ndarray:
    """Per-*rational-slot* expansion, ordered like ``rational_idx``."""
    out = slot_values(configs, attr, n_agents, dtype)
    if isinstance(out, np.ndarray):
        out = out[rational_idx]
    return out


#: Gather a scalar-or-array lane parameter at slot/lane indices — the
#: single idiom every kernel gather site uses.  Hosted in
#: :mod:`repro.core.params` so the scheme books share the one definition.
take = gather_param


class _Section:
    """Attribute bundle duck-typing a constants section.

    Leaves are per-slot arrays (or scalars when uniform), consumed only
    through elementwise numpy operations.
    """

    def __init__(self, **leaves: Any) -> None:
        self.__dict__.update(leaves)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_Section({', '.join(sorted(self.__dict__))})"


#: Leaf fields lifted per constants section (all consumed elementwise).
_CONSTANT_LEAVES = {
    "reputation_s": ("g", "beta", "r_min", "r_max"),
    "reputation_e": ("g", "beta", "r_min", "r_max"),
    "contribution": (
        "alpha_s",
        "beta_s",
        "d_s",
        "alpha_e",
        "beta_e",
        "d_e",
        "retention",
    ),
    "service": (
        "edit_threshold",
        "majority_min",
        "majority_max",
        "vote_punish_threshold",
        "edit_punish_threshold",
    ),
    "utility": ("alpha", "beta", "gamma", "delta", "epsilon"),
}


def lane_constants(constants_list: list, n_agents: int):
    """Per-lane ``PaperConstants`` collapsed into one scheme-consumable form.

    Uniform batches return the shared :class:`~repro.core.params.PaperConstants`
    unchanged (the historical fast path).  Heterogeneous batches return a
    duck-typed bundle whose sections carry per-slot ``(R * N,)`` arrays for
    the leaves that differ — bit-identical per lane because every consumer
    (reputation functions, contribution ledger, punishment trackers,
    majority interpolation, utilities) applies them elementwise.
    """
    first = constants_list[0]
    if all(c == first for c in constants_list[1:]):
        return first
    sections = {}
    for section, leaves in _CONSTANT_LEAVES.items():
        objs = [getattr(c, section) for c in constants_list]
        sections[section] = _Section(
            **{
                leaf: slot_values(objs, leaf, n_agents)
                for leaf in leaves
            }
        )
    return _Section(**sections)


@dataclass
class LaneParams:
    """Every lane-lifted parameter the phase kernels read per step.

    Each field is a plain scalar when all lanes agree (homogeneous
    batches run the exact pre-lane fast path) or an array — per-lane
    ``(R,)``, per-slot ``(R * N,)`` or per-rational-slot — consumed via
    broadcasting and :func:`take` gathers.
    """

    # Protocol temperatures, per lane (R,).
    t_train: float | np.ndarray
    t_eval: float | np.ndarray
    # Workload knobs.
    download_probability: float | np.ndarray  # per lane (R,)
    edit_attempt_prob: float | np.ndarray  # per slot (R*N,)
    max_voters: int | np.ndarray  # per lane (R,)
    min_voters: int | np.ndarray  # per lane (R,)
    # Sybil identity-reset rate, per slot (R*N,).
    sybil_rate: float | np.ndarray
    # Utility modifiers, per slot (R*N,).
    u_alpha: float | np.ndarray
    u_beta: float | np.ndarray
    u_gamma: float | np.ndarray
    u_delta: float | np.ndarray
    u_epsilon: float | np.ndarray
    # Reputation-state discretization bounds, per rational slot.
    disc_s_min: float | np.ndarray
    disc_s_max: float | np.ndarray
    disc_e_min: float | np.ndarray
    disc_e_max: float | np.ndarray
    # Adaptive-majority interpolation inputs, per slot (R*N,).
    majority_min: float | np.ndarray
    majority_max: float | np.ndarray
    rep_e_min: float | np.ndarray
    rep_e_max: float | np.ndarray


def build_lane_params(
    configs: Sequence[SimulationConfig],
    rational_idx: np.ndarray,
) -> LaneParams:
    """Assemble the :class:`LaneParams` for one batch of lane configs."""
    n = configs[0].n_agents
    consts = [c.constants for c in configs]
    util = [c.utility for c in consts]
    rep_s = [c.reputation_s for c in consts]
    rep_e = [c.reputation_e for c in consts]
    svc = [c.service for c in consts]

    def rat(objs, attr):
        """Per-rational-slot values of one constants-section attribute."""
        return rational_values(objs, attr, n, rational_idx)

    return LaneParams(
        t_train=lane_values(configs, "t_train"),
        t_eval=lane_values(configs, "t_eval"),
        download_probability=lane_values(configs, "download_probability"),
        edit_attempt_prob=slot_values(configs, "edit_attempt_prob", n),
        max_voters=lane_values(configs, "max_voters_per_edit", np.int64),
        min_voters=lane_values(configs, "min_voters_per_edit", np.int64),
        sybil_rate=slot_values(configs, "sybil_rate", n),
        u_alpha=slot_values(util, "alpha", n),
        u_beta=slot_values(util, "beta", n),
        u_gamma=slot_values(util, "gamma", n),
        u_delta=slot_values(util, "delta", n),
        u_epsilon=slot_values(util, "epsilon", n),
        disc_s_min=rat(rep_s, "r_min"),
        disc_s_max=rat(rep_s, "r_max"),
        disc_e_min=rat(rep_e, "r_min"),
        disc_e_max=rat(rep_e, "r_max"),
        majority_min=slot_values(svc, "majority_min", n),
        majority_max=slot_values(svc, "majority_max", n),
        rep_e_min=slot_values(rep_e, "r_min", n),
        rep_e_max=slot_values(rep_e, "r_max", n),
    )
