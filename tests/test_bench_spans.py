"""The benchmark's tracer finds every function it wraps.

`bench/spans.py` installs a span by replacing `owner.__dict__[attr]` for
each row of its `TARGETS`, so a traced name must stay a module global (or
a class attribute) of its owner.  The traced benchmark steps in CI catch
a missing name too; this catches it in tier-1.  The module is loaded
without writing bytecode, so nothing is written under `bench/`.
"""

import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_is_in_its_owners_namespace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _name, _hook in spans.TARGETS
               if attr not in vars(owner)]
    assert missing == []
