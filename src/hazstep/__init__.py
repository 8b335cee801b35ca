"""Piecewise constant hazard estimation via fused-lasso denoising.

The package estimates hazard rates that are step functions of time from
right-censored (and possibly left-truncated) event-history data.  The
cumulative hazard is first estimated by the Breslow step estimator; its
increments over a fine grid form a signal-plus-noise regression sample
whose signal is the discretized hazard, which is then recovered with an
exact 1-D fused-lasso solver.  The penalty is calibrated by a multiplier
bootstrap of the lasso effective noise.  An illness-death module fits all
three transition hazards of the progression/death model and converts them
to survival curves in closed form; a simulation harness reproduces the
accompanying Monte-Carlo studies.
"""

from . import data, errors, estimators, flsa, multistate, pipeline, simulate, stepfun, tuning
from .data import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .flsa import *  # noqa: F403
from .multistate import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stepfun import *  # noqa: F403
from .tuning import *  # noqa: F403

__version__ = "0.1.0"

# the public API is the union of the module lists
__all__ = [
    *errors.__all__,
    *data.__all__,
    *stepfun.__all__,
    *estimators.__all__,
    *flsa.__all__,
    *tuning.__all__,
    *pipeline.__all__,
    *multistate.__all__,
    *simulate.__all__,
]
