"""hgpade: exact simultaneous Pade approximants for contiguous hypergeometric
series, non-vanishing certification of the associated generalized Wronskian,
and effective linear-independence measures.

All core arithmetic is exact (`fractions.Fraction`); floats appear only in
logarithmic growth rates and certified-precision reports.
"""

__version__ = "0.1.0"
