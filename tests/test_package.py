import inspect

import qutrit_bloch


def test_all_lists_every_public_name():
    names = vars(qutrit_bloch).items()
    public = {name for name, value in names if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(qutrit_bloch.__all__) == sorted(public)
    assert len(set(qutrit_bloch.__all__)) == len(qutrit_bloch.__all__)
