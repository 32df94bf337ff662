"""Golden digests of ten fleet runs, pinned across commits.

The fleet determinism tests compare two runs of one commit; these
digests compare a run with the one recorded when the pin was made.  Each
row is sha256 over every ``FleetSummary`` field and every
``SessionReport``, floats as ``float.hex``, so one reordered arrival,
admission, farm batch or store lookup moves a digest.  The rows were
recorded at ``7290dca``, while the shared store still addressed
panoramas by a SHA-256 content digest; plain ``(game, gx, gy)`` keys
must leave every row unchanged.

The five ``bench-*`` rows are ``benchmarks/bench_fleet.py``'s smoke
workload legs and both comparison legs, built by its own config
functions, and were recorded at ``2cd3c08``.  They hold the bench's join p99s, sessions/sec and dedup
ratio exactly, where the bench's acceptance gates only bound them.

To re-record after an *intended* behaviour change, run this file as a
script and paste the rows it prints over ``GOLDEN_ROWS``::

    PYTHONPATH=src python tests/fleet/test_fleet_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.fleet import WORKLOADS, FleetBudget, FleetConfig, LobbyConfig, run_fleet

sys.path.insert(0, str(Path(__file__).parents[2] / "benchmarks"))
from bench_fleet import _comparison_config, _workload_config  # noqa: E402

CONFIGS = {
    "poisson": FleetConfig(),
    "flash-2gpu": FleetConfig(workload="flash", budget=FleetBudget(gpu_slots=2)),
    "diurnal-racing-viking": FleetConfig(
        workload="diurnal", games=("racing", "viking")
    ),
    "poisson-isolated": FleetConfig(shared=False),
    "poisson-viking-cts-lobby4": FleetConfig(
        games=("viking", "cts"),
        lobby=LobbyConfig(session_size=4, min_session_size=4),
    ),
    **{
        f"bench-smoke-{workload}": _workload_config(workload, smoke=True)
        for workload in WORKLOADS
    },
    "bench-comparison-shared": _comparison_config(True),
    "bench-comparison-isolated": _comparison_config(False),
}

GOLDEN_ROWS = """
diurnal-racing-viking e0bbd40f81973534199287d47481b4819584b56f518f62434f5b42457d32436f
flash-2gpu 64043391ca19bcb6ae4556274c2d3bca3a225b23d252579661e5f6cbbb7bbb90
poisson 69d85d312c436ed9562c76cb8a72ee61e735733d6243d715299e7ec9aed86ca5
poisson-isolated 939f7b0423b52936e31da992eb1bdfc439b1605978c10d71d760164462c92431
poisson-viking-cts-lobby4 6947350cf939cde43b24540250d26181df67dcbdb0f9eb2a3f634e3fe1520750
bench-comparison-isolated a9ea4c2f88c7ebccbd26fb58844536bb8d037d47b808db9b9e84410ba5e53003
bench-comparison-shared 13526fc2ee3b672922d0c86d5cf3da73c7483f16a369985c6dde8eaa9d5c5721
bench-smoke-diurnal 832fc5cebc61c2e7ecab194b67b588495122ef2cadb0652aabc020b4c1c16328
bench-smoke-flash c2bfe91fadb879130f0f0c0cb220f1b638b6bd4ce33d76f760f422a3dad470fd
bench-smoke-poisson d164a044746b94783113aea60bd0adbe426e15ec458004a9fd7cd1e843c3a96a
"""

GOLDEN = dict(map(str.split, GOLDEN_ROWS.strip().splitlines()))


def _canonical(value):
    """A JSON-able form that keeps every float bit (``float.hex``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def fleet_digest(name: str) -> str:
    """sha256 over the run's summary and per-session reports."""
    result = run_fleet(CONFIGS[name])
    payload = _canonical([result.summary, result.sessions])
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fleet_bit_identical_to_recorded(name):
    assert fleet_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for config_name in sorted(CONFIGS):
        print(config_name, fleet_digest(config_name))
