"""Label-exact graph fingerprints for result caching.

The query service (``repro.service``) keys its result cache on
``(fingerprint, solver config)``.  A cached answer carries vertex labels
(the clique), so it is only correct for a graph with exactly the same
labelled edges.  The fingerprint is therefore a content hash of the CSR
arrays: sha256 over the dtype string, the length and the bytes of
``indptr`` and ``indices``.  Relabelled copies of one graph hash
differently, as they must: a clique in one labelling is not a clique in
the other.
"""

from __future__ import annotations

import hashlib

from .csr import CSRGraph


def fingerprint(graph: CSRGraph) -> str:
    """sha256 over the dtype, length and bytes of ``indptr`` and ``indices``."""
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices):
        h.update(f"{arr.dtype.str}:{len(arr)}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()
