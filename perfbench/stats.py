"""Statistics of the murphyd benchmark, kept in one place and self-tested
(perfbench/test_stats.py).

The benchmark binary only records samples and counts; this module turns them
into the metrics BENCHMARK.json names. Conventions:

* Percentiles are nearest-rank: the p-th percentile of n samples is the
  sample at 1-based rank ceil(p/100 * n) of the sorted list. The samples
  "beyond" it are the n - rank ones ranked above it.
* A tail is the highest of the TAIL_LADDER percentiles (p75, then the
  "nines") with at least MIN_BEYOND samples beyond it. A run (or each of
  its windows) holds a fixed count of samples, so its tail percentile is
  fixed too; the report prints it beside the value.
* Latency and ingest statistics may be taken per window: the samples are
  split into consecutive windows of equal count (the count the run
  records) and the median of the per-window values is reported, so one
  slow stretch of a shared host moves one window, not the run.
* A ratio whose base is empty (0) reads 0, never NaN.
"""

from fractions import Fraction
import math
import statistics

TAIL_LADDER = (50, 75, 90, 99, 99.9, 99.99)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    if n <= 0:
        raise ValueError("no samples")
    # Exact arithmetic: 97.5 * 400 / 100 must be 390, not 390.00000000000006.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Samples ranked strictly above the p-th percentile of n samples."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank p-th percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n):
    """Highest TAIL_LADDER percentile with >= MIN_BEYOND samples beyond it,
    or None when n is too small for any (n < 2 * MIN_BEYOND)."""
    best = None
    for p in TAIL_LADDER:
        if n > 0 and beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value) of the tail; (None, max) when too few samples."""
    p = tail_percentile(len(values))
    if p is None:
        return None, (max(values) if values else 0.0)
    return p, percentile(values, p)


def tail_note(p, n):
    """How a tail value was taken, for the report."""
    if n == 0:
        return "no samples"
    return f"p{p} of n={n}" if p is not None else f"max of n={n}"


def windows(values, count):
    """Splits values into `count` consecutive windows whose sizes differ by
    at most one (fewer windows when there are fewer values)."""
    n = len(values)
    count = max(1, min(count, n))
    return [values[i * n // count:(i + 1) * n // count] for i in range(count)]


def windowed(values, count, p=None):
    """(value, note): the median over windows of each window's p-th
    percentile, or of each window's tail when p is None."""
    if not values:
        return 0.0, "no samples"
    parts = windows(values, count)
    per = [tail(w) if p is None else (p, percentile(w, p)) for w in parts]
    value = statistics.median(v for _, v in per)
    note = tail_note(per[0][0], len(parts[0]))
    if len(parts) > 1:
        note = f"median of {len(parts)} windows, {note} each"
    return value, note


def ratio(num, base):
    """num / base, 0.0 when the base is empty."""
    return num / base if base else 0.0


def mean(values):
    return ratio(sum(values), len(values))


def error_count(raw):
    """Attempts that did not end in an OK diagnosis: ERR lines, rejections
    (service queue full, connection in-flight full), deadline misses and
    lines never answered."""
    return (raw["err_lines"] + raw["rejects"] + raw["deadline"]
            + raw["unanswered"])


def error_frac(raw):
    """error_count / attempted."""
    return ratio(error_count(raw), raw["attempted"])


def end_to_end(raw):
    """End-to-end metrics of one untraced run: name -> (value, unit, note).
    The note says what the value is over (percentile, sample count, base)."""
    lat = raw["latency_ms"]
    ing = raw["ingest_ms"]
    lat_p50, lat_p50_note = windowed(lat, raw["latency_windows"], 50)
    lat_tail, lat_tail_note = windowed(lat, raw["latency_windows"])
    mode = raw["ingest_mode"]
    ing_p50, ing_p50_note = windowed(ing, raw["ingest_windows"], 50)
    ing_tail, ing_tail_note = windowed(ing, raw["ingest_windows"])
    errors = error_count(raw)
    return {
        "diagnose_p50_ms": (lat_p50, "ms", lat_p50_note),
        "diagnose_tail_ms": (lat_tail, "ms", lat_tail_note),
        "cpu_ms_per_diagnose": (
            1000.0 * ratio(raw["cpu_s"], raw["engine_ok"]), "ms",
            f"{raw['cpu_s']:.3f} s CPU / {raw['engine_ok']} OK diagnoses"),
        "ingest_p50_ms": (ing_p50, "ms", f"{ing_p50_note} ({mode})"),
        "ingest_tail_ms": (ing_tail, "ms", f"{ing_tail_note} ({mode})"),
        "ok_frac": (1.0 - error_frac(raw), "ratio",
                    f"1 - error_frac; {errors} errors / "
                    f"{raw['attempted']} attempted"),
        "top3_hit_frac": (ratio(raw["top3_hits"], raw["top3_base"]), "ratio",
                          f"{raw['top3_hits']} / {raw['top3_base']} "
                          "OK diagnoses with a labelled cause"),
        "setup_s": (percentile(raw["setup_s"], 50), "s",
                    f"p50 of n={len(raw['setup_s'])} set-ups"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "ru_maxrss"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics of one traced run: name -> (value, unit, note).
    `untraced` is the run the tracing overhead is measured against."""
    s = traced["samples"]
    v = traced["values"]

    def val(name):
        return v.get(name, 0.0)

    def samples(name):
        return s.get(name, [])

    diags = val("engine.diagnoses")  # "diagnose" spans: every engine run
    calls = val("diagnose.calls")
    queue_mean = ratio(val("service.queue_ms.sum"),
                       val("service.queue_ms.count"))
    run_ms = samples("service.run_ms")
    run_p, run_tail = tail(run_ms)
    wait = samples("stream.write_wait_ms")
    wait_p, wait_tail = tail(wait)
    maint_p, maint_tail = tail(samples("service.maintain_ms"))
    phases = ("graph", "train", "search", "infer", "explain")
    phase_mean = {p: ratio(val(f"phase.{p}_ms"), diags) for p in phases}
    # What the phase means must account for: the service's own run time on
    # the wire workloads, the diagnose() call on incident_batch.
    if val("service.run_ms.count"):
        whole = ratio(val("service.run_ms.sum"), val("service.run_ms.count"))
        whole_note = "service.run_ms mean"
    else:
        whole = mean(traced["latency_ms"])
        whole_note = "diagnose() mean"
    hits_f, miss_f = val("cache.factor_hits"), val("cache.factor_misses")
    hits_w, miss_w = val("cache.window_hits"), val("cache.window_misses")
    kernel = val("infer.kernel_cells")
    p50_traced = percentile(traced["latency_ms"], 50)
    p50_untraced = percentile(untraced["latency_ms"], 50)
    out = {
        "service.wire_overhead_ms": (
            mean(samples("service.rtt_minus_run_ms")) - queue_mean, "ms",
            "mean(rtt - run_ms) - mean queue_ms"),
        "service.queue_ms_mean": (queue_mean, "ms",
                                  f"n={val('service.queue_ms.count'):.0f}"),
        "service.run_ms_p50": (percentile(run_ms, 50), "ms",
                               f"p50 of n={len(run_ms)}"),
        "service.run_ms_tail": (run_tail, "ms",
                                tail_note(run_p, len(run_ms))),
        "service.phase_cover_frac": (
            ratio(sum(phase_mean.values()), whole), "ratio",
            f"sum of phase means / {whole_note}"),
        "stream.write_wait_ms_p50": (percentile(wait, 50), "ms",
                                     f"p50 of n={len(wait)}"),
        "stream.write_wait_ms_tail": (wait_tail, "ms",
                                      tail_note(wait_p, len(wait))),
        "stream.append_us_per_cell": (
            ratio(val("stream.append_us"), val("stream.append_cells")), "us",
            f"replay_slice time / {val('stream.append_cells'):.0f} cells"),
        "service.maintain_ms_tail": (
            maint_tail, "ms",
            tail_note(maint_p, len(samples("service.maintain_ms")))),
        "watchdog.scan_ms_p50": (
            percentile(samples("watchdog.scan_ms"), 50), "ms",
            f"p50 of n={len(samples('watchdog.scan_ms'))}"),
        "watchdog.ns_per_cell": (
            ratio(val("watchdog.scan_ns"), val("watchdog.scan_cells")), "ns",
            f"scan time / {val('watchdog.scan_cells'):.0f} ingested cells"),
        "train.corr_cells_per_diag": (
            ratio(val("train.corr_cells"), calls), "count",
            f"per diagnose.calls={calls:.0f}"),
        "stats.ridge_cells_per_diag": (
            ratio(val("stats.ridge_cells"), calls), "count",
            f"per diagnose.calls={calls:.0f}"),
        "cache.factor_hit_frac": (
            ratio(hits_f, hits_f + miss_f), "ratio",
            f"{hits_f:.0f} / {hits_f + miss_f:.0f} lookups"),
        "cache.window_hit_frac": (
            ratio(hits_w, hits_w + miss_w), "ratio",
            f"{hits_w:.0f} / {hits_w + miss_w:.0f} lookups"),
        "infer.kernel_cells_per_diag": (
            ratio(kernel, calls), "count", f"per diagnose.calls={calls:.0f}"),
        "infer.ns_per_kernel_cell": (
            ratio(1e6 * val("phase.infer_ms"), kernel), "ns",
            f"inference span time / {kernel:.0f} kernel cells"),
        "infer.candidates_per_diag": (
            ratio(val("infer.candidates_evaluated"), calls), "count",
            f"per diagnose.calls={calls:.0f}"),
        "trace.overhead_frac": (
            ratio(p50_traced, p50_untraced) - 1.0 if p50_untraced else 0.0,
            "ratio", f"diagnose_p50_ms traced {p50_traced:.3f} / "
                     f"untraced {p50_untraced:.3f} - 1"),
    }
    for p in phases:
        out[f"{p}.ms_mean"] = (phase_mean[p], "ms",
                               f"span time / {diags:.0f} diagnoses")
    return out
