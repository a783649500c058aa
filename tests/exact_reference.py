"""Operations that only the tests use: scalar ones in GaussianRational
(Fraction) arithmetic, as oracles for code that runs on integer rows, and
builders and comparisons of states and regions."""

from qpdl.frame import LOCAL_STATES
from qpdl.linalg import ONE, ZERO, GaussianRational


def quotient(a, b):
    """a / b for Gaussian rationals, b nonzero."""
    a, b = GaussianRational.of(a), GaussianRational.of(b)
    n = b.re * b.re + b.im * b.im
    return GaussianRational((a.re * b.re + a.im * b.im) / n,
                            (a.im * b.re - a.re * b.im) / n)


def orthogonal(s, t):
    """Whether <s|t> = sum conj(s_k) t_k is 0 for two states' amplitudes."""
    s, t = s.basis.entries[0], t.basis.entries[0]
    return not sum((a.conj() * b for a, b in zip(s, t)), ZERO)


def product_ray(fr, chars):
    """The product state of fr from one of 0 1 + - per qubit, e.g. '0+1':
    the Kronecker product of the local states."""
    amps = (ONE,)
    for c in chars:
        amps = tuple(x * y for x in amps for y in LOCAL_STATES[c])
    return fr.ray(amps)


def same_rayset(a, b):
    """Whether two regions hold the same rays: neither has a ray outside
    the other."""
    return (a.intersect(b.complement()).is_empty()
            and b.intersect(a.complement()).is_empty())
