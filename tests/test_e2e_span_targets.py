"""The frozen end-to-end benchmark wraps ``repro`` functions *by name*.

``benchmarks/e2e/spans.py`` may not change in a PR that touches ``src/``,
and its ``--trace`` twin dies on the first name it cannot resolve — so a
rename or deletion under ``src/repro`` has to fail here, in tier-1,
rather than in the benchmark.  The file is loaded read-only; nothing is
patched.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).parent.parent / "benchmarks" / "e2e" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("e2e_spans_readonly", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for owner, attribute, _name, _style, _after in spans.TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            # install() reads cls.__dict__: an inherited method does not count.
            cls = getattr(module, class_name, None)
            found = cls is not None and attribute in vars(cls)
        else:
            found = callable(getattr(module, attribute, None))
        if not found:
            missing.append(f"{owner}.{attribute}")
    assert missing == []
