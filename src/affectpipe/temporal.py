"""Per-frame attributes and their temporal summary.

A frame stream is an M x 22 float64 matrix, AU(12) | expr(8) | arousal |
valence; this module defines its columns and value contract, checked by
``attribute_matrix``.  A video is reduced to a 58-dim participant vector:
per-column mean and population standard deviation of the 22-dim frame
vectors, per-AU activation fractions at a threshold, and the fractions of
strictly positive arousal and valence frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

N_AU = 12
N_EXPR = 8
FRAME_DIM = N_AU + N_EXPR + 2
FEATURE_DIM = 2 * FRAME_DIM + N_AU + 2
DEFAULT_TAU = 0.5

# Columns of the 22-dim frame vector.
AU_COLS = slice(0, N_AU)
EXPR_COLS = slice(N_AU, N_AU + N_EXPR)
AROUSAL_COL = N_AU + N_EXPR
VALENCE_COL = N_AU + N_EXPR + 1

# The frame contract: the name and inclusive bounds of each column, and how
# far a row's expression probabilities may sum from 1.
COLUMN_NAMES = (
    tuple(f"au_{i:02d}" for i in range(1, N_AU + 1))
    + tuple(f"expr_{i:02d}" for i in range(1, N_EXPR + 1))
    + ("arousal", "valence")
)
COLUMN_BOUNDS = ((0.0, 1.0),) * (N_AU + N_EXPR) + ((-1.0, 1.0),) * 2
EXPR_SUM_TOL = 1e-9
_LO, _HI = np.array(COLUMN_BOUNDS).T

# Indices of the 58-dim vector owned by each attribute.  Mean and std slices
# follow the frame layout; activations cover the AU block only.  The four
# groups partition all 58 dims (36 + 16 + 3 + 3).
ATTRIBUTE_DIMS = {
    "au": tuple(range(0, 12)) + tuple(range(22, 34)) + tuple(range(44, 56)),
    "expr": tuple(range(12, 20)) + tuple(range(34, 42)),
    "arousal": (20, 42, 56),
    "valence": (21, 43, 57),
}


def attribute_matrix(F) -> np.ndarray:
    """Check an M x 22 frame matrix against the frame contract and return it.

    Every value must lie within its column's bounds, which also rules out
    NaN and infinities, and every row's expression probabilities, summed by
    numpy over the C-contiguous matrix, must lie within half of
    ``EXPR_SUM_TOL`` of 1; that margin covers any summation order, so
    ``math.fsum`` accepts them too.  The checked matrix comes back
    C-contiguous float64.  A ``ValueError`` names the first column out of
    bounds, or says the expressions do not sum to 1.
    """
    F = _check_matrix(np.ascontiguousarray(F, dtype=float))
    if (np.all((F >= _LO) & (F <= _HI))
            and np.all(np.abs(F[:, EXPR_COLS].sum(axis=1) - 1.0) <= EXPR_SUM_TOL / 2)):
        return F
    for name, (lo, hi), col in zip(COLUMN_NAMES, COLUMN_BOUNDS, F.T):
        if not np.all((col >= lo) & (col <= hi)):
            raise ValueError(f"column {name} has values outside [{lo}, {hi}]")
    raise ValueError(f"expression probabilities must sum to 1 within {EXPR_SUM_TOL / 2}")


def _check_matrix(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != FRAME_DIM:
        raise ValueError(f"expected an M x {FRAME_DIM} matrix, got shape {F.shape}")
    if F.shape[0] < 1:
        raise ValueError("attribute matrix is empty")
    return F


def mean_std(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation (divide by M)."""
    F = _check_matrix(F)
    # Shift by the first row so constant columns come out exactly zero.
    sigma = (F - F[0]).std(axis=0)
    return F.mean(axis=0), sigma


def au_activation(F: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Fraction of frames per AU with probability strictly greater than tau."""
    F = _check_matrix(F)
    nm.require_real(tau, "tau")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return (F[:, AU_COLS] > tau).mean(axis=0)


def positive_fractions(F: np.ndarray) -> tuple[float, float]:
    """Fractions of frames with strictly positive arousal and valence."""
    F = _check_matrix(F)
    p_aro = float((F[:, AROUSAL_COL] > 0.0).mean())
    p_val = float((F[:, VALENCE_COL] > 0.0).mean())
    return p_aro, p_val


@dataclass(frozen=True)
class TemporalFeatures:
    mean: np.ndarray
    std: np.ndarray
    activation: np.ndarray
    p_arousal: float
    p_valence: float

    def vector(self) -> np.ndarray:
        """58-dim concatenation m | sigma | a | p_aro | p_val."""
        return np.concatenate([
            self.mean, self.std, self.activation, [self.p_arousal, self.p_valence],
        ])


def temporal_feature_vector(F: np.ndarray, tau: float = DEFAULT_TAU) -> TemporalFeatures:
    F = _check_matrix(F)
    m, sigma = mean_std(F)
    a = au_activation(F, tau)
    p_aro, p_val = positive_fractions(F)
    return TemporalFeatures(mean=m, std=sigma, activation=a, p_arousal=p_aro, p_valence=p_val)


def feature_names() -> list[str]:
    """Column names for the 58-dim participant vector, in vector order."""
    names = [f"mean_{n}" for n in COLUMN_NAMES]
    names += [f"std_{n}" for n in COLUMN_NAMES]
    names += [f"act_au_{i + 1:02d}" for i in range(N_AU)]
    names += ["p_arousal", "p_valence"]
    return names
