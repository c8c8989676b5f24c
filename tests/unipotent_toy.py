"""A test model: the rank-3 Heisenberg algebra viewed as a module twisted by
its unipotent isometry, the module of the log-decomposition checks."""

from vertextwist.twisted import UnipotentViewModule


def build_unipotent_toy(heis3, unip):
    """The rank-3 algebra viewed as a module twisted by its unipotent isometry."""
    return UnipotentViewModule("heis3-unipotent-view", heis3, unip)
