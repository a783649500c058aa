"""A property test of ``Frame.product_form`` against the factorization
that gathers and eliminates, over inputs that hypothesis draws (with a
fixed derandomized sequence, so a run is reproducible)."""

from hypothesis import given, settings, strategies as st

from qpdl import linalg
from qpdl.frame import Frame
from qpdl.linalg import GaussianRational

from test_frame import FORM_KINDS, all_subsets, form_subspace, gather_factor, nonzero

GAUSSIAN = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def form_inputs(draw):
    """(frame, sorted qubits, subspace) at n <= 4, of a kind of
    ``test_frame.form_subspace`` with up to 2^n rows."""
    n = draw(st.integers(1, 4))
    fr = Frame(n)
    inside = draw(st.sampled_from(all_subsets(n)))
    kind = draw(st.sampled_from(FORM_KINDS))
    k = draw(st.integers(1, fr.dim))

    def amps(size):
        return nonzero(draw(st.lists(GAUSSIAN, min_size=size, max_size=size)))

    return fr, inside, form_subspace(fr, inside, kind, k, amps)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(form_inputs())
def test_product_form_is_the_gathered_factor_and_eliminates_nothing(case):
    fr, inside, sub = case
    want = gather_factor(fr, sub, inside)
    calls = []
    eliminate = linalg._eliminate
    linalg._eliminate = lambda work, cols: calls.append(cols) or eliminate(work, cols)
    try:
        got = fr._factor(sub, inside)
    finally:
        linalg._eliminate = eliminate
    assert got == want
    assert calls == []
