import vidembed


def test_all_names_resolve():
    assert len(set(vidembed.__all__)) == len(vidembed.__all__)
    namespace = {}
    exec("from vidembed import *", namespace)  # AttributeError on a stale name
    assert set(vidembed.__all__) <= namespace.keys()
