"""One left-to-right float reduction, the same on every Python.

From Python 3.12 the built-in ``sum()`` of floats is compensated
(Neumaier), so it can round differently from the plain left-to-right
loop that Python 3.10 and 3.11 run, and from ``np.sum`` (pairwise).
Every float total that feeds a rendered, pinned or compared number
goes through :func:`ordered_sum` instead, so the recorded outputs do
not depend on the interpreter.  Integer counts keep ``sum()``, which
is exact everywhere.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def ordered_sum(values: Iterable | np.ndarray):
    """``values`` added strictly left to right, starting from int ``0``.

    Returns what ``sum(values)`` returns on Python 3.11, down to the
    type: an empty input gives the int ``0``, and a total of zeros is
    ``0.0``, never ``-0.0``.  A NumPy array goes through ``np.cumsum``,
    which adds in order, without a Python loop.
    """
    if isinstance(values, np.ndarray):
        return 0 + np.cumsum(values)[-1].item() if values.size else 0
    total = 0
    for value in values:
        total += value
    return total
