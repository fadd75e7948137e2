"""Agents: action spaces, vectorized Q-learning, population mixes.

The behaviour types act through the simulation's act phase
(:mod:`repro.sim.phases.act`): rational peers select with their
Q-learners, and the fixed types play the actions pinned for them at
state build.
"""

from .actions import EditActionSpace, SharingActionSpace
from .population import PopulationMix, mixture_sweep
from .qlearning import VectorQLearner, boltzmann_probabilities, sample_categorical

__all__ = [
    "EditActionSpace",
    "SharingActionSpace",
    "PopulationMix",
    "mixture_sweep",
    "VectorQLearner",
    "boltzmann_probabilities",
    "sample_categorical",
]
