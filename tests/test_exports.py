import cayley_qmc


def test_every_export_resolves():
    missing = [name for name in cayley_qmc.__all__ if not hasattr(cayley_qmc, name)]
    assert missing == []
    assert len(set(cayley_qmc.__all__)) == len(cayley_qmc.__all__)
