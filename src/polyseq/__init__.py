"""Exact arithmetic for poly-Bernoulli, polycosecant and polycotangent numbers.

Every value is an exact rational; closed forms in Stirling numbers are
cross-checkable against truncated generating-function expansions, and the
congruence lab verifies the Kummer-type, sum, period, 2-adic and
Clausen-von-Staudt-type statements these families satisfy.
"""

from .congruences import (
    Report,
    Residue,
    ValuationReport,
    Witness,
    oracle_diff,
    ord_p,
    reduce_mod,
    registry_ids,
    valuation_report,
    verify,
)
from .errors import (
    DivisionValuation,
    DivisionZeroConstant,
    HypothesisViolation,
    IndexBeyondTruncation,
    IndexParity,
    MethodDomain,
    NotPIntegral,
    PolyseqError,
    UsageError,
    ZeroValuation,
)
from .families import (
    Family,
    cosecant_bivariate,
    cosecant_from_cotangent,
    family_row,
    family_value,
    k_shift_recurrence,
    poly_bernoulli,
    poly_bernoulli_polynomial,
    polycosecant,
    polycotangent,
    tilde_cosecant,
)
from .sequences import (
    bernoulli,
    euler_number,
    euler_polynomial,
    stirling1,
    stirling2,
    tangent,
    totient,
)
from .series import (
    BiSeries,
    Series,
    biseries_exp,
)
from .symmetrized import (
    copoly_hat,
    sym_cosecant_bivariate,
    sym_bernoulli_bivariate,
    sym_poly_bernoulli,
    sym_polycosecant,
)

__version__ = "0.1.0"
