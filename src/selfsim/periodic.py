"""Canonical forms for eventually periodic sequences.

A pair (prefix, cycle) denotes the sequence prefix + cycle + cycle + ...
The normal form has the primitive (shortest) cycle and the shortest possible
prefix; with those two minimized the cycle's rotation is forced, so two pairs
denote the same sequence exactly when their normal forms coincide.
"""

from __future__ import annotations

from collections.abc import Sequence


def primitive_root(cycle: Sequence) -> tuple:
    cyc = tuple(cycle)
    n = len(cyc)
    for d in range(1, n + 1):
        if n % d == 0 and cyc == cyc[:d] * (n // d):
            return cyc[:d]
    return cyc


def normalize(prefix: Sequence, cycle: Sequence) -> tuple[tuple, tuple]:
    """Return the normal form of the eventually periodic sequence (prefix, cycle)."""
    if not cycle:
        raise ValueError("cycle must be nonempty")
    pre = list(prefix)
    cyc = list(primitive_root(cycle))
    # Absorb matching tail symbols into the cycle: p + (c)* == p' + (rot c)*
    # whenever p ends with the cycle's last symbol.
    while pre and pre[-1] == cyc[-1]:
        pre.pop()
        cyc.insert(0, cyc.pop())
    return tuple(pre), tuple(cyc)


def entry(prefix: Sequence, cycle: Sequence, n: int):
    """0-based entry of the sequence prefix + cycle + cycle + ..."""
    if n < len(prefix):
        return prefix[n]
    return cycle[(n - len(prefix)) % len(cycle)]


def drop(prefix: Sequence, cycle: Sequence, k: int) -> tuple[tuple, tuple]:
    """Representation of the sequence with its first k entries removed (k >= 0)."""
    if k < 0:
        raise ValueError("drop length must be >= 0")
    pre = tuple(prefix)
    cyc = tuple(cycle)
    if k <= len(pre):
        return normalize(pre[k:], cyc)
    shift = (k - len(pre)) % len(cyc)
    return normalize((), cyc[shift:] + cyc[:shift])
