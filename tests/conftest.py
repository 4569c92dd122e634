import pathlib

import pytest

from dworklab.certificates import (
    build_dwork_context,
    build_graph_context,
    build_product_context,
    build_transform_context,
    builtin_suite,
)

BUNDLED = (pathlib.Path(__file__).resolve().parent.parent
           / "src" / "dworklab" / "data" / "dwork_theorem.dwk")
COLLAPSE_GOAL = ("goal collapse : Opb[iotacheck](Oim[s](O[X])) ~ "
                 "RGamma[S](O[X])[1];\n")


@pytest.fixture
def dwork():
    return build_dwork_context()


@pytest.fixture
def product_ctx():
    return build_product_context()


@pytest.fixture
def graph_ctx():
    return build_graph_context()


@pytest.fixture
def transform_ctx():
    return build_transform_context()


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
