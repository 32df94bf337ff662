"""Software panoramic renderer and device render-time models."""

from .framebuffer import (
    cell_noise,
    clip_frame,
    fractal_noise,
    frames_equal,
    hash01,
    new_frame,
    value_noise,
)
from .rasterizer import (
    Layer,
    RenderConfig,
    draw_objects,
    empty_layer,
    merge_layers,
    render_background,
)
from .splitter import (
    eye_at,
    reference_frame,
    render_display_frame,
    render_far_be,
    render_fi,
    render_near_be,
    render_whole_be,
)
from .stereo import DEFAULT_IPD_M, StereoConfig, side_by_side, stereo_views
from .timing import GTX1080TI, PIXEL2, DeviceProfile, RenderCostModel

__all__ = [
    "DeviceProfile",
    "GTX1080TI",
    "Layer",
    "PIXEL2",
    "RenderCostModel",
    "RenderConfig",
    "cell_noise",
    "clip_frame",
    "draw_objects",
    "empty_layer",
    "eye_at",
    "fractal_noise",
    "frames_equal",
    "hash01",
    "merge_layers",
    "new_frame",
    "reference_frame",
    "render_background",
    "render_display_frame",
    "render_far_be",
    "render_fi",
    "render_near_be",
    "render_whole_be",
    "side_by_side",
    "stereo_views",
    "value_noise",
    "DEFAULT_IPD_M",
    "StereoConfig",
]
