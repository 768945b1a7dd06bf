"""Semigroup envelopes of convolution semigroup families on a discretized L^p line.

The package builds the smallest semigroup dominating a family of linear
monotone convolution semigroups (uncertain-drift Gaussian, compound Poisson
with uncertain intensity, pure shift) via the Nisio partition construction,
and verifies its structural properties (semigroup law, supremum generator,
directional-derivative identities, growth bounds) against independent
oracles.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, UsageError
from .funcspace import (
    Grid,
    GridFunction,
    PNorm,
    bump,
    gaussian_profile,
    interp_shift,
    lp_norm,
    make_grid,
    pointwise_max,
    ramp,
    read_csv,
    write_csv,
)
from .kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    KernelFamily,
    LambdaInterval,
    LambdaValues,
    PureShift,
    apply_member,
    heat_convolve,
    sup_generator,
    upper_bound_C,
)
from .envelope import (
    EnvelopeResult,
    Partition,
    apply_partition,
    nisio_dyadic,
    step_J,
)
from .calculus import (
    DerivativeProbe,
    GeneratorEstimate,
    derivative_identity_check,
    directional_derivative,
    generator_fd,
    geometric_schedule,
    growth_bound_estimate,
    integral_identity_check,
    lipschitz_probe,
)
from .reference import (
    ComparisonResult,
    compare,
    counterexample_scan,
    hjb_upwind,
    ode_reference,
    pole_initial_condition,
)
