import numpy as np
import pytest

from crosspeaks.codes import certified_code
from crosspeaks.family import (build_inner_family, build_product_family,
                               product_family_from_parts, write_manifest)

MASTER_SEED = 20260816


@pytest.fixture(scope="session")
def family_34():
    # shared across modules; the (3,4) build takes milliseconds, one build per session
    return build_product_family(3, 4)


@pytest.fixture(scope="session")
def family_28():
    return build_product_family(2, 8)


@pytest.fixture(scope="session")
def family_32():
    return build_product_family(3, 2)


@pytest.fixture(scope="session")
def family_two_word():
    # n=3, k=9: 72 mask bits, so factor 8's pins sit in a second mask word;
    # the words (s + j) and (s + 3j) mod 16 differ in at least 7 places
    inner = build_inner_family(3)
    words = [tuple((s + step * j) % inner.size for j in range(9))
             for step in (1, 3) for s in range(inner.size)]
    return product_family_from_parts(inner, certified_code(inner.size, 9, words))


@pytest.fixture(scope="session")
def manifest_32(family_32, tmp_path_factory):
    path = tmp_path_factory.mktemp("manifests") / "fam32.manifest"
    write_manifest(family_32, path)
    return str(path)


@pytest.fixture()
def rng():
    return np.random.default_rng(MASTER_SEED)
