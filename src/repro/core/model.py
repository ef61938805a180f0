"""The TEVoT model (paper Sec. III-IV).

TEVoT learns the *dynamic delay* ``D = fd(V, T, x[t], x[t-1])`` (Eq. 2)
with a random-forest regressor, then classifies any cycle as timing
correct/erroneous by comparing the predicted delay against an arbitrary
clock period — the paper's argument for delay regression over direct
error classification (Eq. 1): one trained model serves every clock
speed.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..flow.durable import atomic_replace
from ..ml.forest import RandomForestRegressor
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream
from .features import FeatureSpec, build_feature_matrix

#: Marker + schema version of the on-disk model artifact format.  v1
#: artifacts were a bare pickled model object; v2 wraps the model in a
#: self-describing payload dict so registries can read class, feature
#: spec, and user metadata without unpickling surprises.
ARTIFACT_FORMAT = "repro-model"
ARTIFACT_VERSION = 2


def save_model(model: Any, path: Union[str, Path],
               metadata: Optional[Dict] = None) -> None:
    """Persist any trained model object in the stable artifact format.

    Works for :class:`TEVoT` and the baseline models alike; ``metadata``
    is an arbitrary JSON-like dict stored alongside (provenance,
    registry keys, ...).
    """
    spec = getattr(model, "spec", None)
    payload = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "class": type(model).__name__,
        "feature_spec": None if spec is None else {
            "operand_width": spec.operand_width,
            "include_history": spec.include_history,
        },
        "metadata": dict(metadata or {}),
        "model": model,
    }
    # a crash mid-save leaves the previous artifact (or nothing), never
    # a torn pickle
    atomic_replace(path, pickle.dumps(payload))


def load_model(path: Union[str, Path]) -> Tuple[Any, Dict]:
    """Load ``(model, metadata)`` from either artifact format.

    v2 payload dicts yield their stored metadata; bare v1 pickles (the
    pre-registry format) yield ``{}`` — old artifacts keep loading.
    """
    obj = pickle.loads(Path(path).read_bytes())
    if isinstance(obj, dict) and obj.get("format") == ARTIFACT_FORMAT:
        if obj.get("format_version") > ARTIFACT_VERSION:
            raise ValueError(
                f"{path}: artifact format v{obj.get('format_version')} is "
                f"newer than this code understands (v{ARTIFACT_VERSION})")
        return obj["model"], dict(obj.get("metadata") or {})
    return obj, {}


def default_regressor(random_state: Optional[int] = 0) -> RandomForestRegressor:
    """The paper's stated configuration: scikit-learn defaults of the
    era — 10 trees, all features considered at each split."""
    return RandomForestRegressor(
        n_estimators=10,
        max_features=None,       # all features per split
        min_samples_leaf=4,      # keeps pure-noise leaves from exploding
        random_state=random_state,
    )


class TEVoT:
    """Timing-Error model under dynamic Voltage and Temperature.

    Parameters
    ----------
    regressor:
        Any object with ``fit(X, y)`` / ``predict(X)``; defaults to the
        paper's 10-tree random forest.
    include_history:
        When False this is the TEVoT-NH ablation (no ``x[t-1]``
        features).
    operand_width:
        Bits per FU operand (32 for the paper's units).
    """

    def __init__(self, regressor=None, include_history: bool = True,
                 operand_width: int = 32) -> None:
        self.regressor = regressor if regressor is not None \
            else default_regressor()
        self.spec = FeatureSpec(operand_width=operand_width,
                                include_history=include_history)
        self._fitted = False

    # -- training ------------------------------------------------------------

    def fit(self, X: np.ndarray, delays: np.ndarray) -> "TEVoT":
        """Train on a feature matrix (Eq. 3 layout) and delay labels."""
        X = np.asarray(X)
        if X.shape[1] != self.spec.n_features:
            raise ValueError(
                f"feature matrix has {X.shape[1]} columns, spec wants "
                f"{self.spec.n_features}")
        self.regressor.fit(X, np.asarray(delays, dtype=np.float64))
        self._fitted = True
        return self

    # -- inference -----------------------------------------------------------

    def predict_delay(self, X: Union[np.ndarray, List[List[float]]]
                      ) -> np.ndarray:
        """Predicted dynamic delay (ps) per cycle.

        ``X`` is a feature matrix, or a list of feature rows of Python
        floats (:func:`~repro.core.features.feature_row`).  A regressor
        with ``predict_rows`` (the random forest) takes such a list as
        it is and walks a batch of at most :attr:`walk_max_rows` rows
        without building an array; the values are the same either way.
        """
        self._check_fitted()
        if isinstance(X, list) and hasattr(self.regressor, "predict_rows"):
            return self.regressor.predict_rows(X)
        return np.asarray(self.regressor.predict(np.asarray(X)))

    @property
    def walk_max_rows(self) -> int:
        """Largest batch the regressor descends row by row in Python,
        where Python feature rows cost less than a feature matrix; 0
        for a regressor without that path."""
        self._check_fitted()
        return getattr(self.regressor, "walk_max_rows", 0)

    def predict_errors(self, X: np.ndarray, clock_period: float) -> np.ndarray:
        """Per-cycle class: 1 = timing erroneous, 0 = timing correct.

        The same fitted model serves any ``clock_period`` — the paper's
        flexibility argument for predicting delay instead of the error
        bit.
        """
        if clock_period <= 0:
            raise ValueError("clock_period must be positive")
        return (self.predict_delay(X) > clock_period).astype(np.uint8)

    def predict_stream_errors(self, stream: OperandStream,
                              condition: OperatingCondition,
                              clock_period: float) -> np.ndarray:
        """Convenience: feature-build + classify one operand stream."""
        X = build_feature_matrix(stream, condition, self.spec)
        return self.predict_errors(X, clock_period)

    def predict_stream_delays(self, stream: OperandStream,
                              condition: OperatingCondition) -> np.ndarray:
        X = build_feature_matrix(stream, condition, self.spec)
        return self.predict_delay(X)

    def timing_error_rate(self, stream: OperandStream,
                          condition: OperatingCondition,
                          clock_period: float) -> float:
        """Model-estimated TER for a stream at a condition and clock."""
        return float(self.predict_stream_errors(
            stream, condition, clock_period).mean())

    # -- persistence ("we will open-source the pre-trained models") -----------

    def save(self, path: Union[str, Path],
             metadata: Optional[Dict] = None) -> None:
        """Write the stable v2 artifact (payload dict + metadata)."""
        save_model(self, path, metadata=metadata)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TEVoT":
        model, _ = cls.load_with_metadata(path)
        return model

    @classmethod
    def load_with_metadata(cls, path: Union[str, Path]
                           ) -> Tuple["TEVoT", Dict]:
        """Load a model plus its stored metadata (``{}`` for v1 files)."""
        model, metadata = load_model(path)
        if not isinstance(model, cls):
            raise TypeError(f"{path} does not contain a {cls.__name__}")
        return model, metadata

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("TEVoT model is not fitted yet")

    @property
    def include_history(self) -> bool:
        return self.spec.include_history
