"""`tools/graphmem.py` on a tiny training pair: the bytes its graph holds."""

import importlib.util
import os

from sbtrack import model as md

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "graphmem.py")
_spec = importlib.util.spec_from_file_location("graphmem", _PATH)
graphmem = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(graphmem)


def test_tiny_pair_graph_is_at_most_17_mib():
    """The graph keeps only what the backward reads: about 14.4 MiB,
    against 22.8 MiB when it kept every op's inputs."""
    m = graphmem.measure(md.tiny_config())
    assert m["graph"] <= 17 * graphmem.MIB, m
    assert m["graph"] <= m["backward_peak"] and len(m["grads_sha256"]) == 64
