"""Independent oracles shared by the test modules."""

import numpy as np


def measured_sparsity(mask) -> float:
    """Fraction of hidden neurons skipped (zero bits / dim_h)."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.size(mask) - np.count_nonzero(mask)) / float(np.size(mask))
