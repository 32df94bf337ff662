"""Closed-loop adaptive streaming: rate estimation driving CRF ladder
control, prefetch throttling, and app-layer frame dropping."""

from .controller import AbrController, crf_size_scale

__all__ = ["AbrController", "crf_size_scale"]
