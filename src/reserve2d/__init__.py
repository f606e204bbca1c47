"""Two-dimensional reservation tables.

Exact fair-share accounting for vacancies split across departments and
beneficiary categories, controlled rounding into reservation tables that
meet both department and university quotas, unbiased roster lotteries, the
pooled (government) and per-department (court) roster baselines, and
analysis tools for quota violations and biases.
"""

# Each star import re-exports its module's ``__all__`` and, as every submodule
# import does, binds the module here, so ``core.__all__`` below needs no
# ``from . import`` (one raised perfbench's peak RSS by about 0.1 MB).  Keep
# dependency order: loading ``analysis`` first raised it by about 0.2 MB.
from .core import *
from .rounding import *
from .roster import *
from .solutions import *
from .analysis import *
from .rng import ALGORITHM, SplitStream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALGORITHM",
    "SplitStream",
    *core.__all__,
    *rounding.__all__,
    *roster.__all__,
    *solutions.__all__,
    *analysis.__all__,
]
