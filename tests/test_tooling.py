"""The benchmark's tracing targets still exist in the package.

perfbench/spans.py wraps neckdown's functions at the module attributes their
callers look up.  A refactor that removes or renames one would leave its
span unrecorded (MISSING under --trace 1), so this reads the benchmark's
TARGETS table, without changing it, and checks every attribute.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_an_attribute_of_its_modules():
    targets = load_targets()
    assert targets
    missing = []
    for name, sites in targets.items():
        func = name.split(".", 1)[1]
        for site in sites:
            module = importlib.import_module(f"neckdown.{site}")
            if not callable(getattr(module, func, None)):
                missing.append(f"neckdown.{site}.{func} (span {name})")
    assert missing == []
