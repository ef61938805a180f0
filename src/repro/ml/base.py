"""Shared estimator plumbing for the from-scratch ML library.

The paper uses scikit-learn; that is unavailable offline, so
:mod:`repro.ml` reimplements the four families it evaluates (LR, kNN,
SVM, random forest) with a compatible ``fit``/``predict`` interface.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


def check_X_y(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and convert a training pair to float64/1-D arrays."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    # a NaN hangs the tree fitter, an inf breaks its column ranges, and
    # a non-finite target turns every prediction into NaN
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity")
    if y.dtype.kind in "fc" and not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinity")
    return X, y


def check_int(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool)
    ``>= low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def check_X(X, n_features: Optional[int] = None) -> np.ndarray:
    """Validate and convert a prediction input."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, model was fit with {n_features}")
    # a NaN or inf row would descend a tree as if it were a large value
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity")
    return X


class BaseEstimator:
    """Minimal base class: parameter introspection + fitted checks."""

    _fitted: bool = False

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} instance is not fitted yet")

    def get_params(self) -> dict:
        """Public constructor-style parameters (for reporting)."""
        return {
            k: v for k, v in vars(self).items()
            if not k.startswith("_") and not isinstance(v, np.ndarray)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(
            self.get_params().items()))
        return f"{type(self).__name__}({params})"


def resolve_max_features(max_features, n_features: int) -> int:
    """Interpret a ``max_features`` spec the way sklearn does."""
    if max_features is None or max_features == "all":
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, bool):
        raise ValueError(
            f"max_features must not be a bool, got {max_features!r}")
    if isinstance(max_features, (float, np.floating)):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    if isinstance(max_features, (int, np.integer)):
        if max_features < 1:
            raise ValueError("integer max_features must be >= 1")
        return min(int(max_features), n_features)
    raise ValueError(f"unsupported max_features spec: {max_features!r}")
