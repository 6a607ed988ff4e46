"""Brute-force 1-NN oracle over the values the program stores.

Candidates come from a float64 norm-expansion pass over every stored row;
the few best per query are then re-scored by direct differences, and the
lexicographically smallest ``(distance, position)`` is the expected answer --
the same tie-break the library's answer sets use.
"""

from __future__ import annotations

import math

import numpy as np

#: candidates kept per query; far more than the rounding of the expansion
#: pass could ever reorder
_KEEP = 4
#: distances must agree to this relative (and, near zero, absolute) tolerance
RTOL = 1e-9
ATOL = 1e-9


def nearest(chunks, queries: np.ndarray, visible: np.ndarray):
    """Best ``_KEEP`` ``(squared distances, positions)`` per query, ascending.

    ``chunks`` yields ``(offset, rows)`` over the stored collection in order;
    query ``i`` only sees rows below ``visible[i]``.
    """
    q = np.asarray(queries, dtype=np.float64)
    visible = np.asarray(visible, dtype=np.int64)
    q_norms = np.einsum("ij,ij->i", q, q)
    best_d = np.full((q.shape[0], _KEEP), np.inf)
    best_p = np.full((q.shape[0], _KEEP), np.iinfo(np.int64).max)
    for offset, block in chunks:
        x = np.asarray(block, dtype=np.float64)
        approx = np.einsum("ij,ij->i", x, x)[np.newaxis, :] + q_norms[:, np.newaxis]
        approx -= 2.0 * (q @ x.T)
        positions = offset + np.arange(x.shape[0])
        approx[positions[np.newaxis, :] >= visible[:, np.newaxis]] = np.inf
        take = min(_KEEP, x.shape[0])
        cand = np.argpartition(approx, take - 1, axis=1)[:, :take]
        diff = x[cand] - q[:, np.newaxis, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        exact[np.isinf(np.take_along_axis(approx, cand, axis=1))] = np.inf
        all_d = np.concatenate([best_d, exact], axis=1)
        all_p = np.concatenate([best_p, offset + cand], axis=1)
        order = np.lexsort((all_p, all_d), axis=-1)[:, :_KEEP]
        best_d = np.take_along_axis(all_d, order, axis=1)
        best_p = np.take_along_axis(all_p, order, axis=1)
    return best_d, best_p


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b) + ATOL


def check(chunks, asked: dict, answers: dict) -> tuple[int, int, list[str]]:
    """Compare every recorded answer with the oracle.

    Returns ``(answers checked, wrong answers, messages)``.  An answer is
    right when its position is the oracle's and its distance matches within
    the tolerance; a different position is accepted only when the two rows
    are tied at the oracle distance within that tolerance.
    """
    keys = list(asked)
    if not keys:
        return 0, 0, []
    queries = np.stack([asked[k][0] for k in keys])
    visible = np.array([asked[k][1] for k in keys])
    best_d, best_p = nearest(chunks, queries, visible)
    checked = wrong = 0
    messages = []
    for row, key in enumerate(keys):
        expected = math.sqrt(best_d[row, 0])
        scored = {int(p): math.sqrt(d) for p, d in zip(best_p[row], best_d[row])}
        for position, distance in answers[key]:
            checked += 1
            tied = position in scored and _close(scored[position], expected)
            if (position == int(best_p[row, 0]) or tied) and _close(distance, expected):
                continue
            wrong += 1
            if len(messages) < 5:
                messages.append(
                    f"query {key}: got position {position} at {distance!r}, "
                    f"expected {int(best_p[row, 0])} at {expected!r}"
                )
    return checked, wrong, messages
