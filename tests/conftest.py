import numpy as np
from hypothesis import settings

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
