"""ln j! for integer j, bit for bit as scipy.special.gammaln(j + 1).

The k-photon coupling alpha_n ~ sqrt((n+k)!/n!) and the coherent and
squeezed weights need ln j!. scipy's gammaln runs Cephes ``lgam``
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989);
on integer arguments x = j + 1 that is

* x < 13: ln((x-1)!), with (x-1)! an exact double;
* x >= 13: (x - 0.5) ln x - x + ln sqrt(2 pi), plus a 1/x^2 series of five
  terms below 1000 and of three terms from 1000. Cephes skips the series
  above 1e8; there it is below 1e-9 while the sum exceeds 2^30, whose
  half ulp is 1.2e-7, so adding it leaves the same bits.

Every log is the C library's ``math.log``, as in Cephes: numpy's own
vectorized log differs from it in the last bit for a few arguments in
10^5. The rest runs in numpy in Cephes' order of operations, and IEEE
addition, multiplication and division round as C's do, so the bits are
the same.
"""

from __future__ import annotations

import math

import numpy as np

# ln (x-1)! for x = 1..12: below 13 Cephes takes the log of the product.
_SMALL = np.array([math.log(math.factorial(j)) for j in range(12)])
_LN_SQRT_2PI = 0.91893853320467274178
# Cephes lgam's Stirling series in 1/x^2, highest power first: five
# terms below x = 1000, three from there on
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_B = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)


def log_factorials(j) -> np.ndarray:
    """ln j! for each nonnegative integer in ``j``, as a float array of its shape.

    Each element from j = 12 on costs one ``math.log``, so a caller that
    needs ln j! at related arguments builds one table and indexes it.
    """
    j = np.asarray(j, dtype=np.int64)
    out = np.empty(j.shape)
    small = j < len(_SMALL)
    out[small] = _SMALL[j[small]]
    x = j[~small] + 1.0
    log_x = np.fromiter(map(math.log, x.tolist()), float, count=x.size)
    q = (x - 0.5) * log_x - x + _LN_SQRT_2PI
    p = 1.0 / (x * x)
    series = np.where(
        x < 1000.0,
        (((_A[0] * p + _A[1]) * p + _A[2]) * p + _A[3]) * p + _A[4],
        (_B[0] * p + _B[1]) * p + _B[2],
    )
    out[~small] = q + series / x
    return out
