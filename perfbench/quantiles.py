"""Order statistics used by the benchmark's reports.

`spread` uses `statistics.quantiles(values, n=4)` (the default exclusive
method), so it matches a spread computed from the same values that way.
`percentile` interpolates linearly between closest ranks, the usual
definition for latency percentiles.
"""

import statistics


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile(values, q):
    """The q-th percentile, for whole q from 1 to 99; needs two values or
    more."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
