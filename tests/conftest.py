import math
from itertools import combinations, combinations_with_replacement, groupby

import numpy as np
from hypothesis import settings

from sortition_lab.model import Mode
from sortition_lab.sampling import TRIAL_BLOCK, block_members

# the properties run numpy-heavy examples whose time varies with the host,
# so none of them has a per-example deadline
settings.register_profile("sortition-lab", deadline=None)
settings.load_profile("sortition-lab")


def shortest_path_closure(raw: np.ndarray) -> np.ndarray:
    """Symmetrize and close a nonnegative matrix under shortest paths.

    The result satisfies all metric axioms by construction, which makes it a
    convenient generator of valid finite metrics.
    """
    d = (np.asarray(raw, dtype=float) + np.asarray(raw, dtype=float).T) / 2
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def plan_blocks(plan) -> list[np.ndarray]:
    """Member matrix of every block of a trial plan, in trial order."""
    return [block_members(plan, block) for block in range(-(-plan.trials // TRIAL_BLOCK))]


def weighted_panels(n: int, k: int, mode: Mode):
    """Members of every panel with its integer count of draws: the exact-enumeration oracle.

    The count is 1 for a subset drawn without replacement (over C(n, k))
    and the number of orderings of the multiset with replacement (over n^k).
    """
    if mode is Mode.WITHOUT_REPLACEMENT:
        for members in combinations(range(n), k):
            yield members, 1
        return
    for members in combinations_with_replacement(range(n), k):
        orderings = math.factorial(k)  # k! over the product of multiplicity factorials
        for _, run in groupby(members):
            orderings //= math.factorial(len(list(run)))
        yield members, orderings
