"""The path benchmark wraps sievepath functions by module and name; a rename
must fail here rather than inside a traced benchmark run."""

from pathlib import Path

import scipy.sparse.linalg as spla

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_wrappers_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, install_layer_wrappers

    splu = spla.splu
    with Tracer() as tracer:
        # wrap() looks up every name, so a missing one raises here
        install_layer_wrappers(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
        assert ("sievepath.graph", "union_find_min_labels") in wrapped
        assert ("sievepath.labels", "union_find_min_labels") in wrapped
    assert spla.splu is splu
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
