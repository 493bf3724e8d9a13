"""A system over given blocks, for tests that need chosen entries in place of
an assembled system's."""

import numpy as np

from rfm.assembly import RowGroup, WeightedSystem, wide_expansions


class GivenBlocks:
    """A layout whose group ``groups[i]`` has block ``arrays[i]``, over the
    columns of ``model``.  Like an assembled system's layout it finds its
    wide expansions, and hands out new blocks and keeps none that a caller
    could change."""

    def __init__(self, groups: list[RowGroup], arrays: list[np.ndarray], model):
        self.groups, self.arrays = groups, arrays
        self.wide = wide_expansions(groups, model)

    def blocks(self, which: list[int]) -> list[np.ndarray]:
        return [self.arrays[i].copy() for i in which]


def given_system(groups, arrays, rhs, model) -> WeightedSystem:
    """An unweighted system of the given groups and blocks, all of its rows
    counted as interior rows."""
    return WeightedSystem(GivenBlocks(groups, arrays, model), rhs, model, None, len(rhs), 0, 0, 0)
