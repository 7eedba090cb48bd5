"""The benchmark's per-layer tracer must find every function it wraps.

``bench/run.py --trace 1`` replaces each path in ``bench/tracing.WRAPPED``
with a timing wrapper.  A renamed function, or a deleted import that only
the tracer looks up, would otherwise break tracing alone and go unnoticed.
"""

import importlib.util
from pathlib import Path

import channel_order
import channel_order.cli  # noqa: F401  (the tracer wraps cli.main)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(path: str):
    """The attribute the tracer replaces at ``path``, or None if there is none."""
    *owner_path, attr = path.split(".")
    owner = channel_order
    for part in owner_path:
        owner = getattr(owner, part, None)
    return None if owner is None else vars(owner).get(attr)


def test_every_traced_path_resolves_and_is_restored():
    tracing = load_tracing()
    paths = [path for path, _ in tracing.WRAPPED]
    originals = [lookup(path) for path in paths]
    assert [path for path, fn in zip(paths, originals) if not callable(fn)] == []
    tracer = tracing.Tracer(channel_order)
    try:
        tracer.install()
        assert all(lookup(path) is not fn for path, fn in zip(paths, originals))
    finally:
        tracer.uninstall()
    assert all(lookup(path) is fn for path, fn in zip(paths, originals))
