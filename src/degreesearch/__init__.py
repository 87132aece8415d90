"""Decentralized degree-greedy search on scale-free networks.

Simulation toolkit: graph model and exact shortest-path oracle,
preferential-attachment generator, edge-list I/O, the bounded-visibility
search walk with optional neighbor consultation, greedy route
refinement, and a reproducible experiment harness.

Every name in a module's ``__all__`` is exported here.
"""

from . import errors, experiment, generate, graphs, refine, search, topology
from .errors import *
from .experiment import *
from .generate import *
from .graphs import *
from .refine import *
from .search import *
from .topology import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += experiment.__all__
__all__ += generate.__all__
__all__ += graphs.__all__
__all__ += refine.__all__
__all__ += search.__all__
__all__ += topology.__all__
