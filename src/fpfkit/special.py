"""Ports of the Cephes log-gamma and normal CDF, bit for bit.

``loggamma`` is SciPy's real ``scipy.special.loggamma`` for x > 0, which is
Cephes ``lgam``; ``ndtr`` is ``scipy.special.ndtr``, which is Cephes ``ndtr``
with its ``erf`` and ``erfc``. Each port does the Cephes double arithmetic in
the same order and takes logarithms and exponentials from ``math``, the C
library calls Cephes makes (NumPy's own ``log`` and ``exp`` loops may round
differently), so the run and grid paths need no SciPy.
"""

from __future__ import annotations

import math

import numpy as np

# lgam: Stirling series (A) at and above 13, rational B/C on [2, 3) below
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_C = (  # leading 1 implied
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))

# erfc: P/Q for 1 <= x < 8, R/S above; erf: T/U for |x| <= 1, and erfc is
# 1 - erf below 1
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1 implied
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n], by Horner's rule (works on arrays)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], by Horner's rule."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam_below_13(x: float) -> float:
    """Cephes lgam for 0 < x < 13: recur to [2, 3), then the B/C rational."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)


def loggamma(x):
    """log Gamma(x) for finite x > 0, equal to ``scipy.special.loggamma``
    bit for bit; a float for a scalar, an array shaped like ``x`` otherwise."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    small = flat < 13.0
    out[small] = [_lgam_below_13(v) for v in flat[small].tolist()]
    z = flat[~small]
    log_z = np.fromiter(map(math.log, z.tolist()), float, z.size)
    with np.errstate(over="ignore"):  # z near the double range's top
        q = (z - 0.5) * log_z - z + _LS2PI
        p = 1.0 / (z * z)
    tail = np.where(
        z >= 1000.0,
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333,
        _polevl(p, _A),
    )
    out[~small] = np.where(z > 1.0e8, q, q + tail / z)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1 (odd, so no sign branch changes a bit)."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """Cephes erfc for x >= 1: 0 once exp(-x^2) underflows."""
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _P)) / _p1evl(x, _Q)
    return (z * _polevl(x, _R)) / _p1evl(x, _S)


def _ndtr(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * (1.0 - _erf(z) if z < 1.0 else _erfc(z))
    return 1.0 - y if x > 0 else y


def ndtr(x):
    """Standard normal CDF, equal to ``scipy.special.ndtr`` bit for bit; a
    float for a scalar, an array shaped like ``x`` otherwise."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(_ndtr, x.ravel().tolist()), float, x.size)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
