"""The package loads lazily: each name on first use, each engine with the
command that needs it.

The fresh interpreters put the directory this process imported dworklab
from first on `sys.path` (they do not run isolated), so a patched copy of
the package under test is the one they load.
"""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import dworklab

PACKAGE_DIR = str(pathlib.Path(dworklab.__file__).resolve().parent.parent)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SYMBOLIC = ("dsl", "geometry", "terms", "rules", "certificates", "search")


def _fresh(code):
    """Run `code` in a new interpreter that imports this dworklab."""
    prog = f"import sys\nsys.path.insert(0, {PACKAGE_DIR!r})\n{code}"
    return subprocess.run([sys.executable, "-c", prog], capture_output=True,
                          text=True, timeout=120)


def test_dwork_check_loads_no_symbolic_module():
    done = _fresh(
        "import json\n"
        "from dworklab.cli import main\n"
        "code = main(['dwork-check', '--f', 'x*y', '--output', 'machine'])\n"
        "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
        "raise SystemExit(code)\n")
    assert done.returncode == 0, done.stderr
    golden = (GOLDEN / "dwork-check-xy.json").read_text(encoding="utf-8")
    assert done.stdout == golden
    loaded = set(json.loads(done.stderr))
    assert "dworklab.weyl.compare" in loaded
    assert sorted(loaded & {f"dworklab.{m}" for m in SYMBOLIC}) == []


def test_dwork_check_loads_neither_dataclasses_nor_inspect():
    # the concrete engine and the cli build no dataclass, so a dwork-check
    # process pays for neither module
    done = _fresh(
        "import json\n"
        "from dworklab.cli import main\n"
        "code = main(['dwork-check', '--f', 'x*y', '--output', 'machine'])\n"
        "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
        "raise SystemExit(code)\n")
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stderr))
    assert "dworklab.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect"}) == []


def test_proof_certificate_is_the_only_dataclass():
    # every other value class is a `records.record`, and the reports are
    # plain classes
    for name in sorted(dworklab._SUBMODULES):
        importlib.import_module(f"dworklab.{name}")
    dworklab.certificates.builtin_suite()
    found = sorted(
        f"{modname}.{cls.__qualname__}"
        for modname, module in list(sys.modules.items())
        if modname.startswith("dworklab")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == modname
        and "__dataclass_fields__" in vars(cls))
    assert found == ["dworklab.certificates.ProofCertificate"]


def test_import_dworklab_loads_no_submodule_and_submodules_resolve():
    done = _fresh(
        "import dworklab\n"
        "assert [m for m in sys.modules if m.startswith('dworklab.')] == []\n"
        "import dworklab.cli\n"
        "contexts, certs = dworklab.certificates.builtin_suite()\n"
        "print(len(certs))\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "9\n"


@pytest.mark.parametrize("name", [n for n in dworklab.__all__
                                  if n != "__version__"])
def test_every_public_name_is_its_modules_object(name):
    owner = importlib.import_module(f"dworklab.{dworklab._OWNER[name]}")
    value = getattr(dworklab, name)
    assert value is getattr(owner, name)
    if hasattr(value, "__module__"):
        assert value.__module__.startswith(owner.__name__)


def test_star_import_and_dir_cover_all():
    ns = {}
    exec("from dworklab import *", ns)
    assert set(dworklab.__all__) <= set(ns)
    assert set(dworklab.__all__) <= set(dir(dworklab))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dworklab.no_such_name
    assert not hasattr(dworklab, "oracles")
