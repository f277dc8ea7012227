"""Exception types shared across the package."""


class PolyseqError(Exception):
    """Base class for all polyseq errors."""


class DivisionValuation(PolyseqError):
    """Series division where the dividend vanishes to lower order than the divisor."""


class IndexBeyondTruncation(PolyseqError):
    """Coefficient requested past the truncation order of a series."""


class DivisionZeroConstant(PolyseqError):
    """Bivariate series division by a series with zero constant coefficient."""


class IndexParity(PolyseqError):
    """Index has the wrong parity for the requested sequence."""


class MethodDomain(PolyseqError):
    """Requested computation method does not cover the given parameters."""


class ZeroValuation(PolyseqError):
    """p-adic valuation of zero requested."""


class NotPIntegral(PolyseqError):
    """Residue reduction of a rational with a p in its denominator."""


class HypothesisViolation(PolyseqError):
    """Identity parameters fall outside the theorem's hypotheses."""


class UsageError(PolyseqError):
    """Bad command-line arguments or parameter record."""
