import klbounds


def test_star_import_resolves_every_export():
    names = klbounds.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from klbounds import *", namespace)
    assert all(name in namespace for name in names)
