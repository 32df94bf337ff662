"""Cross-mode bit-identity of the full-render Coterie online path.

Online, ``--kernels`` selects the pixel kernels and one more thing:
``vector`` defers SSIM scoring through the
:class:`repro.core.online.SsimBatchQueue` (the frame cache is
mode-independent).  A full-render session must produce *identical*
metrics — switch SSIMs, displayed SSIMs, FPS — under every kernel mode.
"""

import pytest

from repro.render import KERNEL_MODES, RenderConfig
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game


@pytest.fixture(scope="module")
def parity_runs():
    world = load_game("pool")
    runs = {}
    for mode in KERNEL_MODES:
        config = SessionConfig(
            duration_s=1.5, seed=2, render_frames=True,
            render_config=RenderConfig(kernels=mode),
        )
        artifacts = prepare_artifacts(world, config)
        runs[mode] = run_coterie(world, 2, config, artifacts, ssim_stride=5)
    return runs


class TestFullRenderParity:
    def test_switch_ssims_identical(self, parity_runs):
        scalar, batched = parity_runs["scalar"], parity_runs["vector"]
        for ps, pb in zip(scalar.players, batched.players):
            assert len(ps.switch_ssims) > 0
            assert [float(v) for v in ps.switch_ssims] == [
                float(v) for v in pb.switch_ssims
            ]

    def test_displayed_ssim_records_identical(self, parity_runs):
        scalar, batched = parity_runs["scalar"], parity_runs["vector"]
        for ps, pb in zip(scalar.players, batched.players):
            assert ps.metrics.mean_ssim is not None
            assert ps.metrics.mean_ssim == pb.metrics.mean_ssim

    def test_timing_metrics_identical(self, parity_runs):
        scalar, batched = parity_runs["scalar"], parity_runs["vector"]
        assert scalar.mean_fps == batched.mean_fps
        for ps, pb in zip(scalar.players, batched.players):
            assert ps.metrics.fps == pb.metrics.fps
            assert ps.metrics.cache_hit_ratio == pb.metrics.cache_hit_ratio
