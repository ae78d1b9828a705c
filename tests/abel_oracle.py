"""The summation-by-parts lemma as a row: prefix dominance of u by v and
nonincreasing nonnegative weights give sum lam_k u_k <= sum lam_k v_k.

The sampled suites rest on it, so the tests check it, both as a property
on random sequences and on actual Schwarz compositions (acceptance 11).
"""

from typing import Sequence

import numpy as np

from blochsums import BoundEvaluation


def _abel_row(
    bound_id: str,
    instance_id: str,
    u: Sequence[float],
    v: Sequence[float],
    lam: Sequence[float],
) -> BoundEvaluation:
    """Row for sum lam_k u_k <= sum lam_k v_k (u, v may be signed).  Its
    preconditions, each prefix sum of u at most v's and lam nonincreasing and
    nonnegative, raise ValueError: invalid input, not a failed row."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    la = np.asarray(lam, dtype=np.float64)
    if not ua.shape == va.shape == la.shape or ua.ndim != 1 or ua.size == 0:
        raise ValueError("u, v, lam must be nonempty 1-D sequences of equal length")
    cu = np.cumsum(ua)
    cv = np.cumsum(va)
    slop = 1e-12 * (1.0 + np.abs(cv))
    if np.any(cu > cv + slop):
        raise ValueError("invalid input: prefix sums of u must be dominated by v")
    if np.any(la < -1e-15):
        raise ValueError("invalid input: lam must be nonnegative")
    if np.any(np.diff(la) > 1e-15 * (1.0 + np.abs(la[:-1]))):
        raise ValueError("invalid input: lam must be nonincreasing")
    return BoundEvaluation(
        bound_id=bound_id,
        instance_id=instance_id,
        params={"terms": float(ua.size)},
        lhs=float(np.dot(la, ua)),
        rhs=float(np.dot(la, va)),
    )
