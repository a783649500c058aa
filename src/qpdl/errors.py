"""Shared error types for input, evaluation and rewriting."""


class InputError(ValueError):
    """Input the checker refuses before deciding anything: a syntax error,
    a malformed state file, binding, rational or qubit index, a frame past
    the qubit cap, or a formula that unfolds past the node budget."""


class CheckError(Exception):
    """Base for everything the evaluator can refuse to do."""


class UnboundVariable(CheckError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class SpatialAtomInSymbolicMode(CheckError):
    """A construct whose meaning is state-by-state was used in a validity
    question the region algebra cannot express."""


class UnsupportedShape(CheckError):
    """The construct is in the grammar but outside the decidable shapes
    this evaluator handles."""


class UnsupportedNesting(UnsupportedShape):
    """A sub-term appeared somewhere its frame convention forbids."""


class NonDeterministicProgram(CheckError):
    """A single linear branch was required but the program has several."""
