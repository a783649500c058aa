"""Scalar operations that only the tests use, in GaussianRational
(Fraction) arithmetic: oracles for code that runs on integer rows."""

from qpdl.linalg import ZERO, GaussianRational


def quotient(a, b):
    """a / b for Gaussian rationals, b nonzero."""
    a, b = GaussianRational.of(a), GaussianRational.of(b)
    n = b.re * b.re + b.im * b.im
    return GaussianRational((a.re * b.re + a.im * b.im) / n,
                            (a.im * b.re - a.re * b.im) / n)


def orthogonal(s, t):
    """Whether <s|t> = sum conj(s_k) t_k is 0 for two rays' amplitudes."""
    return not sum((a.conj() * b for a, b in zip(s.amps, t.amps)), ZERO)
