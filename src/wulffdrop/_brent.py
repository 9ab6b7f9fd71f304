"""Brent's root finder (Brent 1973, Algorithms for Minimization without
Derivatives, ch. 4), ported line for line from scipy's ``Zeros/brentq.c``.

It evaluates f at the same abscissae, returns the same float and raises the
same exception types as ``scipy.optimize.brentq`` at scipy's default rtol
and maxiter, without importing scipy.optimize.
"""

import math

# scipy's defaults: relative tolerance 4 eps and at most 100 iterations.
RTOL = 4.0 * math.ulp(1.0)
MAXITER = 100


def brentq(f, a: float, b: float, xtol: float, ends=None) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, to within
    about xtol + RTOL |root|.

    Each value of f is taken as a float, as the C code does.  ``ends``, when
    given, is the pair (f(a), f(b)) that the caller has already evaluated:
    those values are reused, and f is called only at the interior
    abscissae, the same ones as without it.  Ends of one sign or a NaN
    value raise ValueError, and no convergence within MAXITER iterations
    raises RuntimeError.
    """

    def value(x: float, fx=None) -> float:
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fa, fb = (None, None) if ends is None else ends
    fpre = value(xpre, fa)
    fcur = value(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # signbit(fpre) == signbit(fcur) in the C code; neither value is 0 or NaN.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # The tolerance is 2 delta.
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Interpolate.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Extrapolate.  Where the denominator underflows to 0 the
                # C code's step is inf or NaN, which fails the test below
                # and bisects; a NaN step does that here too.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den != 0.0 else math.nan)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # Good short step.
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
