"""Deterministic seed derivation.

Every run hangs off one base seed; components (data generation, parameter
init, per-epoch shuffles, per-image corruption) get independent streams by
folding stable names/indices into the base seed. Python's builtin hash() is
salted per process, so we mix with splitmix64 instead.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 step; maps any 64-bit state to a well-mixed 64-bit value."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *parts: int | str) -> int:
    """Fold names/indices into ``base``, yielding a stable 64-bit sub-seed.

    String parts are folded byte-by-byte so the result does not depend on
    process hash randomization or platform.
    """
    return fold_seed(splitmix64(int(base) & _MASK64), *parts)


def fold_seed(seed: int, *parts: int | str) -> int:
    """Fold more parts into a seed that ``derive_seed`` returned.

    ``derive_seed`` is a left fold, so ``derive_seed(base, *a, *b)`` equals
    ``fold_seed(derive_seed(base, *a), *b)``: a shared prefix of parts is
    folded once and each caller folds only its own suffix.
    """
    state = int(seed) & _MASK64
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                state = splitmix64(state ^ b)
        else:
            state = splitmix64(state ^ (int(part) & _MASK64))
    return state


def rng_for(base: int, *parts: int | str) -> np.random.Generator:
    """Generator seeded by the derived sub-seed."""
    return np.random.default_rng(derive_seed(base, *parts))
