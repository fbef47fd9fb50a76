"""Exact collective-spin traces and their bosonic large-N limits."""

from .boson import (
    BosonSymbol,
    NormalForm,
    normal_order_symbol,
    number_polynomial,
    wick_reorder,
)
from .bridge import (
    ConvergenceReport,
    boson_image,
    ordering_sensitivity,
    position_sector,
    verify_theorem,
)
from .moments import (
    complex_gaussian_expectation,
    gaussian_expectation,
    limit_moment,
)
from .parsing import parse_polynomial, render_polynomial
from .rationals import ComplexRational
from .spin_core import (
    IrrepSpec,
    ResourceLimitError,
    SpinPolynomial,
    TraceResult,
    dense_oracle_trace,
    irrep_multiplicity,
    irrep_sectors,
    normalized_trace,
)
from .thermal import (
    THEOREM_STATE,
    ThermalState,
    density_diagonal,
    polylog_negative,
    thermal_expect,
    thermal_expect_weighted,
)
from .xy import (
    XYParams,
    boson_thermal_expectation,
    effective_temperature,
    partition_function,
    spin_thermal_expectation,
    validity_check,
)

__version__ = "0.1.0"
