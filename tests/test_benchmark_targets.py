"""The traced benchmark run wraps entwine functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for span, (modname, attr) in load_targets().items():
        owner = importlib.import_module(f"entwine.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and callable(vars(owner).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{span}: entwine.{modname}.{attr}")
    assert not missing, missing
