"""A system over given blocks, for tests that need chosen entries in place of
an assembled system's."""

import numpy as np

from rfm.assembly import RowGroup, WeightedSystem


class GivenBlocks:
    """A layout whose group ``groups[i]`` has block ``arrays[i]``.  Like an
    assembled system's layout it hands out new blocks and keeps none that a
    caller could change."""

    def __init__(self, groups: list[RowGroup], arrays: list[np.ndarray]):
        self.groups, self.arrays = groups, arrays

    def blocks(self, which: list[int]) -> list[np.ndarray]:
        return [self.arrays[i].copy() for i in which]


def given_system(groups, arrays, rhs, model) -> WeightedSystem:
    """An unweighted system of the given groups and blocks, all of its rows
    counted as interior rows."""
    return WeightedSystem(GivenBlocks(groups, arrays), rhs, model, None, len(rhs), 0, 0, 0)
