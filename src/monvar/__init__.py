"""Equational reasoning over monoid varieties.

Words and substitutions over a free monoid, one-step rewriting with
replayable derivation certificates, exact congruence-class and isoterm
computation for content-balanced identity systems, word-problem deciders
for benchmark varieties with meet/join composition, finite-lattice
special-element analysis, and scripted end-to-end verification scenarios.
"""

from .words import *
from .rewriting import *
from .varieties import *
from .lattices import *
from .scenarios import *

__version__ = "0.1.0"

# each submodule import above also binds the submodule's own name here
__all__ = words.__all__ + rewriting.__all__ + varieties.__all__ + lattices.__all__ + scenarios.__all__
