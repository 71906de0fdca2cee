"""Pure arithmetic behind the benchmark's metrics (no I/O, no processes).

Kept apart from run.py so test_metrics.py can check it directly.
"""

# metrics::Histogram keeps 16 sub-buckets per power of two; values below 16
# have a bucket each.
_SUB_BUCKET_BITS = 4


def bucket_width(lower):
    """Width of the metrics::Histogram bucket whose lower bound is `lower`."""
    if lower < (1 << _SUB_BUCKET_BITS):
        return 1
    return 1 << (lower.bit_length() - 1 - _SUB_BUCKET_BITS)


def percentile(cdf, max_value, q):
    """Value at quantile q of a bucketed histogram, interpolated inside the
    bucket that holds the rank.

    `cdf` is the list of [bucket lower bound, cumulative count] pairs the
    benchmark binary recovers from a metrics::Histogram; `max_value` is its
    exact maximum. The bucket is the one Histogram::ValueAtQuantile(q)
    picks (rank floor(q * (n - 1)) + 1); inside it the samples are taken as
    evenly spread, so the result moves with the data instead of sticking
    to the bucket's lower bound. Returns 0 for an empty histogram.
    """
    if not cdf:
        return 0.0
    n = cdf[-1][1]
    rank = q * (n - 1) + 1
    target = int(q * (n - 1)) + 1
    before = 0
    for lower, cumulative in cdf:
        if cumulative >= target:
            fraction = (rank - before - 1) / (cumulative - before)
            upper = min(lower + bucket_width(lower), max_value + 1)
            return min(float(max_value), lower + fraction * (upper - lower))
        before = cumulative
    return float(max_value)


def samples_beyond(count, q):
    """Samples above the q-quantile of `count`, and whether that is the
    ten or more a reported percentile needs."""
    beyond = int(round(count * (1 - q)))
    return beyond, beyond >= 10


def outage_slices(slices, crash_slice, baseline=50, sustain=2):
    """Slices from a crash until service recovers.

    Recovery is the first slice, at or after the crash, that starts a run of
    `sustain` consecutive slices each completing at least half the mean
    completions of the `baseline` slices before the crash. Requiring a run
    keeps the burst of in-flight acks that land just after a crash from
    counting as recovery. When the window ends first, the outage lasts to
    the window's end.
    """
    window = slices[max(0, crash_slice - baseline):crash_slice]
    if not window:
        raise ValueError("no pre-crash slices before slice %d" % crash_slice)
    threshold = 0.5 * sum(window) / len(window)
    for start in range(crash_slice, len(slices) - sustain + 1):
        if all(slices[start + k] >= threshold for k in range(sustain)):
            return start - crash_slice
    return len(slices) - crash_slice


def residual_ns_per_req(wall_ns_per_req, covered):
    """Wall ns per request not covered by the replayed layers.

    `covered` maps a layer to (ns per operation, operations per request).
    The result is negative when the replays over-cover the request, which
    points at replay loops costlier than the real calls.
    """
    return wall_ns_per_req - sum(ns * per_req for ns, per_req in covered.values())
