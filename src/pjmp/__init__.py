"""Exact simulation and certificates for a reset-and-increment spiking network.

The model: N neurons, each carrying a nonnegative membrane potential. Neuron
i fires at rate delta + slope * x_i; firing resets it to zero and adds the
synaptic weight W[i][j] to every other neuron j. The package simulates this
jump process exactly, enumerates its reachable states inside a coordinate
box, solves for the stationary law, and evaluates explicit drift,
variance-to-energy, and exponential-tail certificates against exact and
Monte Carlo ground truth.
"""

__version__ = "0.1.0"

# each module's __all__ is its public interface; the package republishes them
from .model import *
from .simulate import *
from .statespace import *
from .spectral import *
from .certificates import *

__all__ = [name for name in dir() if not name.startswith("_")]
