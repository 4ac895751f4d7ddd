"""Host-speed correction of the benchmark's timings.

The VM this benchmark was written on runs the same round anywhere from
about 45 to 160 ms depending on the moment, for two reasons:

* the hypervisor stops the VM now and then for tens of milliseconds
  (steal time).  That inflates wall time but not the process's CPU time,
  so the benchmark times rounds in process CPU time.  bohrlab's
  campaigns are serial and CPU bound, so on a machine of its own their
  CPU time is their wall time;
* the host's speed itself drifts, over seconds to minutes, and CPU time
  drifts with it.  No run length averages that out.  So the benchmark
  times a fixed kernel after every command of a round: small complex
  numpy operations and plain Python, like bohrlab's work but sharing
  none of its code.  A command's CPU time is scaled by REFERENCE_S over
  the median of the six kernel times around it (the one just before,
  the one just after and two more on each side), which gives its time
  at the host's reference speed.

Raw wall times are kept in the result file.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# About the kernel's median time on the 2-core VM the baseline was measured on.
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_STACK = _rng.normal(size=(65, 3, 3)) + 1j * _rng.normal(size=(65, 3, 3))
_VEC = _rng.normal(size=65) + 1j * _rng.normal(size=65)
_POWERS = _rng.normal(size=(65, 65)) + 1j * _rng.normal(size=(65, 65))


def kernel() -> float:
    """Process CPU time of one pass of the fixed reference work, in seconds."""
    start = process_time()
    acc = 0.0
    for _ in range(20):
        gram = np.conj(np.swapaxes(_STACK, -1, -2)) @ _STACK
        acc += float(np.linalg.eigvalsh(gram)[:, -1].sum())
        p = _VEC
        for _ in range(8):
            p = np.convolve(p, _VEC)[: _VEC.size]
        acc += float(np.einsum("km,kab->mab", _POWERS, _STACK).real.sum())
        acc += sum(x * 0.5 for x in range(200))
    return process_time() - start
