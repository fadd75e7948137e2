"""Agents: action spaces, vectorized Q-learning, behaviour policies, mixes."""

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
