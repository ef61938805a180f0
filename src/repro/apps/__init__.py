"""Application layer: images, filters, profiling, injection, quality."""

from .filters import FUHooks, gaussian_filter, run_filter, sobel_filter
from .images import image_corpus, split_corpus, synthetic_image
from .inject import InjectingHooks, quality_for_ters, run_filter_with_errors
from .profiling import (
    app_stream,
    profile_filter,
    profile_filter_float,
)
from .quality import (
    ACCEPTABLE_PSNR_DB,
    estimation_accuracy,
    is_acceptable,
    psnr,
)

__all__ = [
    "ACCEPTABLE_PSNR_DB",
    "FUHooks",
    "InjectingHooks",
    "app_stream",
    "estimation_accuracy",
    "gaussian_filter",
    "image_corpus",
    "is_acceptable",
    "profile_filter",
    "profile_filter_float",
    "psnr",
    "quality_for_ters",
    "run_filter",
    "run_filter_with_errors",
    "sobel_filter",
    "split_corpus",
    "synthetic_image",
]
