"""The package's public names."""
import metrosim


def test_every_public_name_resolves():
    missing = [name for name in metrosim.__all__ if not hasattr(metrosim, name)]
    assert missing == []
    assert len(set(metrosim.__all__)) == len(metrosim.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from metrosim import *", namespace)
    assert set(metrosim.__all__) <= set(namespace)
