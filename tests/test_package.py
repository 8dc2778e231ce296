import releq


def test_exports_are_sorted_unique_and_resolve():
    # a name deleted from the package but left in __all__ fails here,
    # not in a user's import
    assert releq.__all__ == sorted(set(releq.__all__))
    missing = [name for name in releq.__all__ if not hasattr(releq, name)]
    assert missing == []
