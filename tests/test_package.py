import loopsynth


def test_public_names_resolve_once():
    names = loopsynth.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(loopsynth, name)]
    assert missing == []
