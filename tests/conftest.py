import numpy as np
import pytest

from crosspeaks.family import build_product_family, write_manifest

MASTER_SEED = 20260816


@pytest.fixture(scope="session")
def family_34():
    # shared across modules; the (3,4) build takes milliseconds, one build per session
    return build_product_family(3, 4)


@pytest.fixture(scope="session")
def family_32():
    return build_product_family(3, 2)


@pytest.fixture(scope="session")
def manifest_32(family_32, tmp_path_factory):
    path = tmp_path_factory.mktemp("manifests") / "fam32.manifest"
    write_manifest(family_32, path)
    return str(path)


@pytest.fixture()
def rng():
    return np.random.default_rng(MASTER_SEED)
