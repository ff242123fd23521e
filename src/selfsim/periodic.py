"""Canonical forms for eventually periodic sequences.

A pair (prefix, cycle) denotes the sequence prefix + cycle + cycle + ...
The normal form has the primitive (shortest) cycle and the shortest possible
prefix; with those two minimized the cycle's rotation is forced, so two pairs
denote the same sequence exactly when their normal forms coincide.
"""

from __future__ import annotations

from collections.abc import Sequence


def primitive_root(cycle: Sequence) -> tuple:
    """The shortest root whose powers give cycle back, compared by ==."""
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
    return absorb(prefix, primitive_root(cycle))


def absorb(prefix: Sequence, cycle: Sequence) -> tuple[tuple, tuple]:
    """The normal form of (prefix, cycle) for a primitive cycle: p + (c)* == p' + (rot c)* whenever
    p ends with the cycle's last symbol (compared by ==), so that tail of p moves into the cycle."""
    pre, cyc = tuple(prefix), tuple(cycle)
    n, k = len(cyc), 0
    while k < len(pre) and pre[-1 - k] == cyc[-1 - k % n]:
        k += 1
    r = n - k % n
    return pre[: len(pre) - k], cyc[r:] + cyc[:r]


def entry(prefix: Sequence, cycle: Sequence, n: int):
    """0-based entry of the sequence prefix + cycle + cycle + ..."""
    if n < len(prefix):
        return prefix[n]
    return cycle[(n - len(prefix)) % len(cycle)]


def drop(prefix: tuple, cycle: tuple, k: int) -> tuple[tuple, tuple]:
    """The normal form (prefix, cycle) with its first k >= 0 entries removed, as a suffix
    of a minimal prefix is minimal and a rotated primitive cycle is primitive."""
    if k < 0:
        raise ValueError("drop length must be >= 0")
    if k <= len(prefix):
        return prefix[k:], cycle
    shift = (k - len(prefix)) % len(cycle)
    return (), cycle[shift:] + cycle[:shift]
