"""Inverse of the standard normal CDF: Cephes' ``ndtri`` in numpy.

The one transform from uniforms to normals in the package: ``jumpsim``
draws the Brownian increments and the normals behind the jump marks
through ``ndtri``.  It is a port of the Cephes routine that
``scipy.special.ndtri`` compiles, with the same coefficients, the same
branch points (u = e^-2 and 1 - e^-2, then x = 8 in the tails) and the
same operation order, so:

* on the central branch, e^-2 < u <= 1 - e^-2 (about 73% of uniform
  draws), it uses only +, -, * and / and returns Cephes' bytes;
* on the tails it also takes two logs, and numpy's vectorised ``log``
  may round differently from the C library's: about 60 keyed draws in
  10^6 end up to 5 units in the last place (ULPs) away from Cephes'
  value, and the tests allow 8;
* every value is a function of its own input alone, so the result does
  not depend on the array's size, layout or the element's position in it.

The domain is the open interval (0, 1), where the keyed uniforms of
``jumpsim`` lie.
"""

from __future__ import annotations

import numpy as np

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # e^-2


def _table(*coefficients: float) -> tuple[np.ndarray, ...]:
    """Coefficients as 0-d arrays, which numpy's in-place operators take faster than floats."""
    return tuple(np.array(c) for c in coefficients)


# x * P(x) / Q(x) for |u - 1/2| <= 1/2 - e^-2, in x = (u - 1/2)^2
_P0 = _table(-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = _table(1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# the same in z = 1/sqrt(-2 log y) for y = min(u, 1 - u) between e^-32 and e^-2 ...
_P1 = _table(4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = _table(1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ... and below e^-32 (sqrt(-2 log y) >= 8)
_P2 = _table(3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = _table(6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """x * P(x) / Q(x) with a monic Q, as Cephes' ``x * polevl(x, p) / p1evl(x, q)`` rounds it.

    Horner steps in place on two new arrays; products are commuted,
    which changes no rounding.
    """
    num = x * p[0]
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def ndtri(u) -> np.ndarray:
    """The x with Phi(x) = u, elementwise, for u in (0, 1), as a new C-contiguous array."""
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    # central branch over every element, tails included: cheaper than
    # gathering the 73% that need it; the tails overwrite theirs below
    c = flat - 0.5
    x = _rational(c * c, _P0, _Q0)
    x *= c
    x += c
    x *= _S2PI

    tail = np.flatnonzero((flat <= _EXP_M2) | (flat > 1.0 - _EXP_M2))
    y = flat[tail]
    sign = y - 0.5  # negative on the lower tail, where Cephes negates
    np.minimum(y, 1.0 - y, out=y)  # reflects the upper tail, 1 - y exact there
    r = np.log(y)
    r *= -2.0
    np.sqrt(r, out=r)
    z = 1.0 / r
    x1 = _rational(z, _P1, _Q1)
    far = np.flatnonzero(r >= 8.0)
    if far.size:
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 = np.log(r)
    x0 /= r
    np.subtract(r, x0, out=r)
    r -= x1
    x[tail] = np.copysign(r, sign, out=r)  # r > 0, so this is Cephes' negation
    return x.reshape(u.shape)
