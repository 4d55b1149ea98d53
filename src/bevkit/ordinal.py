"""Focal-length pseudo-domains with an ordinal classification loss.

Focal lengths are binned by uniform discretization of an interval
[alpha, beta] into K sub-intervals.  The K + 1 bin edges plus the two
open ranges on either side give K + 2 ordered categories.  Classifying a
focal length into its category is decomposed into K + 1 binary questions
"is the focal length below edge k?", one per edge, which preserves the
ordering information a plain cross-entropy would ignore.

Logits come in pairs: entry 2k scores "below edge k", entry 2k + 1 scores
"not below", so a scheme with K sub-intervals needs 2 (K + 1) logits.
Logits, and the gradient ``reverse_gradient`` takes, are a numpy array of
integer or float dtype or a list or tuple of ``geometry.is_real`` numbers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import finite_number, is_real, positive_number, shown, whole_number

__all__ = [
    "OrdinalDomainScheme",
    "DATASET_SCHEMES",
    "assign_label",
    "ordinal_loss",
    "ordinal_loss_grad",
    "reverse_gradient",
]


@dataclass(frozen=True)
class OrdinalDomainScheme:
    """Uniform discretization of a focal-length interval.

    ``thresholds`` holds the K + 1 bin edges alpha + (beta - alpha) * i / K,
    derived on construction.  Category 0 is "below alpha", category K + 1
    is "at or above beta", and categories 1..K are the half-open
    sub-intervals [t_{i-1}, t_i).
    """

    alpha: float
    beta: float
    num_subintervals: int
    thresholds: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        alpha, beta = finite_number("alpha", self.alpha), finite_number("beta", self.beta)
        if not alpha < beta:
            raise ValueError(f"need alpha < beta, got alpha={alpha}, beta={beta}")
        k = whole_number("num_subintervals", self.num_subintervals, 1)
        thresholds = tuple(alpha + (beta - alpha) * i / k for i in range(k + 1))
        # Edges collapse where K is large for beta - alpha, and overflow where (beta - alpha) * i does.
        for i, (a, b) in enumerate(zip(thresholds, thresholds[1:])):
            if not a < b < math.inf:
                raise ValueError(f"thresholds must be strictly ascending and finite, got t_{i} = {a}, t_{i + 1} = {b}")
        for name, value in (("alpha", alpha), ("beta", beta), ("num_subintervals", k), ("thresholds", thresholds)):
            object.__setattr__(self, name, value)

    @property
    def num_categories(self) -> int:
        return self.num_subintervals + 2


# Focal-length discretizations (pixels) used with the public datasets.
DATASET_SCHEMES: dict[str, OrdinalDomainScheme] = {
    "nuscenes": OrdinalDomainScheme(500.0, 750.0, 5),
    "waymo": OrdinalDomainScheme(600.0, 900.0, 6),
    "lyft": OrdinalDomainScheme(500.0, 650.0, 3),
}


def assign_label(scheme: OrdinalDomainScheme, focal: float) -> int:
    """Category of a focal length; edges belong to the upper bin.

    Returns 0 below the first edge, K + 1 at or above the last, and i + 1
    for focal in [t_i, t_{i+1}).
    """
    focal = positive_number("focal", focal)
    # the count of edges <= focal
    return bisect.bisect_right(scheme.thresholds, focal)


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; a numpy array passes on its dtype alone, with no Python loop over it."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" or (
        isinstance(values, (list, tuple)) and all(map(is_real, values))
    ):
        return np.asarray(values, dtype=float)
    raise ValueError(f"{name} must be a list, tuple or array of numbers, got {shown(values)}")


def _split_logits(logits, label: int) -> tuple[np.ndarray, np.ndarray]:
    values = _real_array("logits", logits).reshape(-1)
    if values.size < 4 or values.size % 2 != 0:
        raise ValueError(f"logits length must be even and >= 4, got {values.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        # margins[k] > 0 favors "below edge k"
        margins = values[0::2] - values[1::2]
    if not np.all(np.isfinite(margins)):
        raise ValueError("logits must be finite, and so must the difference within each pair")
    num_edges = values.size // 2
    label = whole_number("label", label, 0)
    if label > num_edges:
        raise ValueError(f"label must be in [0, {num_edges}], got {label}")
    below = (label <= np.arange(num_edges)).astype(float)
    return margins, below


def ordinal_loss(logits, label: int) -> float:
    """Sum of the K + 1 binary cross-entropies; non-negative, 0 at saturation.

    Each edge k contributes -log P_k when the label says the focal length
    is below edge k (label <= k) and -log (1 - P_k) otherwise, where
    P_k = sigmoid(logit_{2k} - logit_{2k+1}).  Computed through a stable
    softplus so saturated logits cannot overflow; a sum beyond the float
    range raises ValueError.
    """
    margins, below = _split_logits(logits, label)
    # -log sigmoid(m) = softplus(-m); -log(1 - sigmoid(m)) = softplus(m)
    terms = below * np.logaddexp(0.0, -margins) + (1.0 - below) * np.logaddexp(0.0, margins)
    with np.errstate(over="ignore"):
        loss = float(np.sum(terms))
    if loss == math.inf:
        raise ValueError("ordinal loss overflows a float")
    return loss


def ordinal_loss_grad(logits, label: int) -> np.ndarray:
    """Analytic gradient of ordinal_loss with respect to the logits."""
    margins, below = _split_logits(logits, label)
    # sigmoid via exp(log sigmoid) stays finite at both tails
    prob_below = np.exp(-np.logaddexp(0.0, -margins))
    d_margin = prob_below - below
    grad = np.empty(margins.size * 2)
    grad[0::2] = d_margin
    grad[1::2] = -d_margin
    return grad


def reverse_gradient(grad, grl_lambda: float = 1.0) -> np.ndarray:
    """Scaled gradient negation, -lambda * grad (forward pass is the identity)."""
    return -finite_number("grl_lambda", grl_lambda, "non-negative") * _real_array("grad", grad)
