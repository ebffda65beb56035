"""The package's real FFTs, SciPy's `rfftn` and `irfftn` bit for bit from
one-axis `numpy.fft` passes: `rfft` on the last axis, then `fft` over axes
0..n-2 in increasing order (NumPy's `rfftn` runs them in decreasing order,
other bits in 3-D); unscaled `ifft` over axes 0..n-2 in increasing order,
`irfft` on the last axis, one scaling by 1/N^n (NumPy's `irfftn` scales each
pass, other bits unless N is a power of 2).  Each pass writes into `out` or
`work`, complex arrays of the half spectrum's shape allocated when not given.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np


def rfftn(x: np.ndarray, work=None) -> np.ndarray:
    """`scipy.fft.rfftn(x)` into a new array, alternating with `work[0]`."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), complex)
    other = np.empty_like(out) if work is None else work[0]
    # an odd pass count starts in `out`, so that the last pass ends there
    dst = out if x.ndim % 2 else other
    np.fft.rfft(x, out=dst)
    for axis in range(x.ndim - 1):
        src, dst = dst, (other if dst is out else out)
        np.fft.fft(src, axis=axis, out=dst)
    return out


def irfftn(sp: np.ndarray, shape, out=None, work=None, cols=slice(None)) -> np.ndarray:
    """`scipy.fft.irfftn(sp, s=shape)`, into `out` or a new array.  The
    leading-axis passes alternate between the one or two `work` arrays and
    cover the band `cols` of last-axis columns, which must hold every nonzero
    one of `sp`; the `work` arrays must be zero outside it."""
    out = np.empty(shape) if out is None else out
    if work is None:
        work = [np.empty(sp.shape, complex) for _ in range(min(len(shape) - 1, 2))]
    for axis, dst in zip(range(len(shape) - 1), cycle(work)):
        np.fft.ifft(sp[..., cols], axis=axis, norm="forward", out=dst[..., cols])
        sp = dst
    np.fft.irfft(sp, n=shape[-1], norm="forward", out=out)
    out *= 1.0 / out.size
    return out
