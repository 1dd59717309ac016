"""Region-free explicit MPC: condensed parametric QPs solved by active-set search.

The pipeline: :mod:`.problem` holds receding-horizon problem data,
:mod:`.lifting` condenses it into a parametric QP in the inputs,
:mod:`.solver` locates the optimal active set for a query parameter with warm
starts and rank-deficiency pruning, :mod:`.beam` builds the flexible-beam
benchmark, and :mod:`.sim` closes the loop.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
