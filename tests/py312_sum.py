"""CPython 3.12's built-in ``sum()``, written in Python.

From 3.12, ``sum()`` compensates float additions (Neumaier's variant
of Kahan summation), so it can round differently from the left-to-right
loop of 3.10 and 3.11.  Patching this function into ``builtins.sum`` on
an older interpreter shows which outputs would move on 3.12.

It follows ``builtin_sum_impl`` in ``Python/bltinmodule.c``: an exact
``int`` fast path, then a float path that compensates exact ``float``
items, adds ``int`` items uncompensated, and falls back to plain
``+`` (after folding in the compensation) on any other item.
"""

from __future__ import annotations

import math

_LONG_MIN = -(2**63)
_LONG_MAX = 2**63 - 1


def py312_sum(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings/bytes")
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and type(item) is not bool:
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
