import drowsy


def test_public_names_resolve():
    assert len(set(drowsy.__all__)) == len(drowsy.__all__)
    for name in drowsy.__all__:
        assert hasattr(drowsy, name), name
    assert "SchemeMapError" not in drowsy.__all__
