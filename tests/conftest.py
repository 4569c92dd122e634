import pytest

from dworklab.certificates import DATA, builtin_suite

BUNDLED = DATA / "dwork_theorem.dwk"
COLLAPSE_GOAL = ("goal collapse : Opb[iotacheck](Oim[s](O[X])) ~ "
                 "RGamma[S](O[X])[1];\n")


@pytest.fixture
def dwork():
    return builtin_suite()[0]["dwork"]


@pytest.fixture
def product_ctx():
    return builtin_suite()[0]["product"]


@pytest.fixture
def graph_ctx():
    return builtin_suite()[0]["graph"]


@pytest.fixture
def transform_ctx():
    return builtin_suite()[0]["transform"]


@pytest.fixture(scope="session")
def suite():
    return builtin_suite()


@pytest.fixture(scope="session")
def bundled_text():
    return BUNDLED.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def collapse_text(bundled_text):
    """The bundled script's declarations with the support-collapse goal and
    no proof, as the CI workflow writes `collapse.dwk`."""
    decls = [line for line in bundled_text.splitlines(keepends=True)
             if not line.startswith(("goal ", "step ", "closure "))]
    return "".join(decls) + COLLAPSE_GOAL
