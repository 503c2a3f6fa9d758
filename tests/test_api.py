import qngcoh


def test_every_public_name_resolves():
    missing = [name for name in qngcoh.__all__ if not hasattr(qngcoh, name)]
    assert not missing
    assert len(set(qngcoh.__all__)) == len(qngcoh.__all__)
