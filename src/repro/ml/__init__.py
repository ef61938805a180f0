"""From-scratch supervised-learning library (sklearn-free).

Implements the four method families the paper evaluates in Table II —
linear/logistic regression, k-nearest neighbours, linear SVM, and
random forests — plus metrics and scaling utilities.
"""

from .base import BaseEstimator, NotFittedError
from .forest import RandomForestClassifier, RandomForestRegressor
from .knn import KNeighborsClassifier, KNeighborsRegressor
from .linear import LinearRegression, LogisticRegression
from .metrics import (
    accuracy_score,
    confusion_matrix,
    mean_absolute_error,
    mean_squared_error,
    precision_recall_f1,
    r2_score,
)
from .preprocessing import MinMaxScaler, StandardScaler
from .svm import LinearSVC
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "LinearRegression",
    "LinearSVC",
    "LogisticRegression",
    "MinMaxScaler",
    "NotFittedError",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "StandardScaler",
    "accuracy_score",
    "confusion_matrix",
    "mean_absolute_error",
    "mean_squared_error",
    "precision_recall_f1",
    "r2_score",
]
