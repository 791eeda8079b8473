import levylab


def test_every_public_name_resolves():
    assert len(levylab.__all__) == len(set(levylab.__all__))
    missing = [name for name in levylab.__all__ if not hasattr(levylab, name)]
    assert missing == []
