"""The porting example, run end to end with its printed summary pinned.

``examples/port_a_new_game.py`` is the one caller outside the nine games
that builds a ``DensityField`` world and a cutoff map over it, then runs
the store, merge and reuse steps on them.  Every number it prints comes
from those offline steps, so a change that moves the world or the cutoff
radii shows here.
"""

import importlib.util
from pathlib import Path

PORT_EXAMPLE = Path(__file__).parent.parent / "examples" / "port_a_new_game.py"

EXPECTED = """\
'Harvest' world built: 7912 objects, 45 M triangles
1. cutoffs computed: 19 leaf regions, radii 9.4-26.1 m
2. far-BE panoramas: 274 KB 4K-equivalent per frame
3. merged display frame rendered (256x128)
4. cache reuse live: dist_thresh 0.69 m at spawn; reused-frame SSIM vs reference 1.000

New game ported with zero framework changes.
"""


def test_port_a_new_game_summary(capsys):
    spec = importlib.util.spec_from_file_location("port_a_new_game", PORT_EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main()
    assert capsys.readouterr().out == EXPECTED
