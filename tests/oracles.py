"""Reference computations shared by the tests, independent of the
library's own machinery."""

import numpy as np


def trapezoid_oracle(f, a: float, b: float, panels: int = 1_000_000) -> float:
    """Brute-force trapezoid reference, independent of the panel machinery."""
    x = np.linspace(a, b, panels + 1)
    return float(np.trapezoid(f(x), x))
