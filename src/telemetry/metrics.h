/// \file
/// Metrics registry: named counters, gauges, and log2-bucketed histograms.
///
/// The paper's entire argument rests on counts and costs of architectural
/// events (PKRU writes, TLB flushes, shootdown IPIs, pgd switches — Fig. 1
/// and Tables 3-5), so the simulator exposes them as first-class metrics
/// rather than ad-hoc per-component tallies.
///
/// Design:
///  - A fixed table of well-known metrics (`Metric` enum, `kMetricDefs`)
///    covers the hot paths in src/hw, src/kernel and src/vdom.
///  - Storage is flat: one plain 64-bit cell per counter or gauge and one
///    Histogram per histogram metric, at a constexpr slot derived from
///    `kMetricDefs`.  The engine runs on one host thread, so cells need
///    neither per-core copies nor atomics.
///  - Emission goes through a global null-by-default hook: with no
///    registry attached, `metric_add()` is a single predictable-branch
///    pointer test and *never* touches simulated time (the cycle-identity
///    test in tests/test_telemetry.cc pins this down).  It is the one
///    ambient sink left: the fault plan and the flight recorder hang off
///    the world (`hw::Machine::set_faults`/`set_flight`), but perfbench
///    attaches a registry with `ScopedMetrics` around worlds it does not
///    build, so the registry moves to the world once perfbench is ported.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace vdom::telemetry {

/// Metric flavors.
enum class MetricKind : std::uint8_t {
    kCounter,    ///< Monotonic event count.
    kGauge,      ///< Last-written level.
    kHistogram,  ///< log2-bucketed value distribution.
};

/// Well-known metrics, wired through the simulator's layers.
enum class Metric : std::uint16_t {
    // hw: TLB and permission register.
    kTlbHit,
    kTlbMiss,
    kTlbEvict,
    kTlbFlush,
    kTlbFlushedPages,
    kPermRegWrite,
    // kernel: shootdowns, ASID management, memory synchronization.
    kShootdowns,
    kShootdownIpis,
    kShootdownRetries,
    kAsidRollover,
    kAsidRecycle,
    kMemsyncPages,
    kFaultIn,
    kVdsCount,
    kVmaCacheHit,
    kVmaCacheMiss,
    // vdom: API surface and the virtualization algorithm.
    kWrvdrCalls,
    kRdvdrCalls,
    kVdrMemoHit,
    kFaultsHandled,
    kSigsegv,
    kGateEnter,
    kGateExit,
    kGateExitBlocked,
    kDomainMapHit,
    kDomainMapFree,
    kHlruEvict,
    kVdsSwitch,
    kMigration,
    kVdsAlloc,
    // Fault injection (sim/fault.h).
    kFaultsInjected,
    // Transactional ops (kernel/journal.h).
    kTxnRollback,
    // Crash consistency (kernel/wal.h, vdom/recovery.h).
    kWalAppend,            ///< WAL records sealed durable.
    kWalCommit,            ///< Transactions committed to the WAL.
    kWalAbort,             ///< Transactions aborted in the WAL.
    kRecoveryReplayed,     ///< Committed ops redone during recover().
    kRecoveryTorn,         ///< Torn records truncated by the WAL scan.
    // Latency distributions (simulated cycles).
    kWrvdrLatency,
    kShootdownLatency,
    kFaultLatency,
    // Cross-core shootdown flow shape (flight recorder, PR 6).
    kShootdownFanout,      ///< IPI targets per shootdown.
    kShootdownE2eLatency,  ///< Issue -> last remote flush completion.
    kTxnJournalDepth,      ///< Undo entries unwound per rollback.
    kShootdownBackoff,     ///< IPI retry backoff wait per attempt.
    kNumMetrics,
};

constexpr std::size_t kNumWellKnownMetrics =
    static_cast<std::size_t>(Metric::kNumMetrics);

/// Static definition of one well-known metric.
struct MetricDef {
    const char *name;
    MetricKind kind;
};

/// Name/kind table, indexed by Metric.  Naming scheme:
/// "<subsystem>.<event>[_<unit>]"; histograms end in "_cycles"
/// (latencies), "_targets" (fan-outs) or "_depth" (log sizes).
constexpr std::array<MetricDef, kNumWellKnownMetrics> kMetricDefs = {{
    {"tlb.hit", MetricKind::kCounter},
    {"tlb.miss", MetricKind::kCounter},
    {"tlb.evict", MetricKind::kCounter},
    {"tlb.flush", MetricKind::kCounter},
    {"tlb.flushed_pages", MetricKind::kCounter},
    {"perm_reg.write", MetricKind::kCounter},
    {"shootdown.count", MetricKind::kCounter},
    {"shootdown.ipi", MetricKind::kCounter},
    {"shootdown.retry", MetricKind::kCounter},
    {"asid.rollover", MetricKind::kCounter},
    {"asid.recycle", MetricKind::kCounter},
    {"mm.memsync_pages", MetricKind::kCounter},
    {"mm.fault_in", MetricKind::kCounter},
    {"mm.vds_count", MetricKind::kGauge},
    {"vma.cache_hit", MetricKind::kCounter},
    {"vma.cache_miss", MetricKind::kCounter},
    {"api.wrvdr", MetricKind::kCounter},
    {"api.rdvdr", MetricKind::kCounter},
    {"vdr.memo_hit", MetricKind::kCounter},
    {"api.fault", MetricKind::kCounter},
    {"api.sigsegv", MetricKind::kCounter},
    {"gate.enter", MetricKind::kCounter},
    {"gate.exit", MetricKind::kCounter},
    {"gate.exit_blocked", MetricKind::kCounter},
    {"virt.map_hit", MetricKind::kCounter},
    {"virt.map_free", MetricKind::kCounter},
    {"virt.hlru_evict", MetricKind::kCounter},
    {"virt.vds_switch", MetricKind::kCounter},
    {"virt.migration", MetricKind::kCounter},
    {"virt.vds_alloc", MetricKind::kCounter},
    {"fault.injected", MetricKind::kCounter},
    {"txn.rollback", MetricKind::kCounter},
    {"wal.append", MetricKind::kCounter},
    {"wal.commit", MetricKind::kCounter},
    {"wal.abort", MetricKind::kCounter},
    {"recovery.replayed", MetricKind::kCounter},
    {"recovery.torn", MetricKind::kCounter},
    {"api.wrvdr_cycles", MetricKind::kHistogram},
    {"shootdown.latency_cycles", MetricKind::kHistogram},
    {"api.fault_cycles", MetricKind::kHistogram},
    {"shootdown.fanout_targets", MetricKind::kHistogram},
    {"shootdown.e2e_cycles", MetricKind::kHistogram},
    {"txn.journal_depth", MetricKind::kHistogram},
    {"shootdown.backoff_cycles", MetricKind::kHistogram},
}};

/// Returns the registry name of a well-known metric.
constexpr const char *
metric_name(Metric m)
{
    return kMetricDefs[static_cast<std::size_t>(m)].name;
}

/// Returns the kind of a well-known metric.
constexpr MetricKind
metric_kind(Metric m)
{
    return kMetricDefs[static_cast<std::size_t>(m)].kind;
}

/// A log2-bucketed histogram.
///
/// Bucket b holds values v with bit_width(v) == b, i.e. bucket 0 is {0},
/// bucket 1 is {1}, bucket 2 is {2,3}, bucket b is [2^(b-1), 2^b).
struct Histogram {
    static constexpr std::size_t kBuckets = 65;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    static constexpr std::size_t
    bucket_of(std::uint64_t value)
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    /// Upper bound of bucket \p b (the value reported for percentiles).
    static constexpr std::uint64_t
    bucket_bound(std::size_t b)
    {
        return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    }

    void
    observe(std::uint64_t value)
    {
        ++buckets[bucket_of(value)];
        ++count;
        sum += value;
    }

    /// Value at quantile \p q in [0,1], estimated as the upper bound of the
    /// bucket containing the q-th sample.  Returns 0 for empty histograms.
    std::uint64_t
    percentile(double q) const
    {
        if (count == 0)
            return 0;
        auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
        if (rank >= count)
            rank = count - 1;
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            seen += buckets[b];
            if (seen > rank)
                return bucket_bound(b);
        }
        return bucket_bound(kBuckets - 1);
    }

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    Histogram &
    operator+=(const Histogram &other)
    {
        for (std::size_t b = 0; b < kBuckets; ++b)
            buckets[b] += other.buckets[b];
        count += other.count;
        sum += other.sum;
        return *this;
    }
};

/// Scalar and histogram metrics are stored separately; each metric's slot
/// is its position among the metrics of its own storage kind, in
/// `kMetricDefs` order.
constexpr std::size_t kNumHistogramMetrics = [] {
    std::size_t n = 0;
    for (const MetricDef &def : kMetricDefs)
        n += def.kind == MetricKind::kHistogram;
    return n;
}();
constexpr std::size_t kNumScalarMetrics =
    kNumWellKnownMetrics - kNumHistogramMetrics;

/// Storage slot of every well-known metric, indexed by Metric.
constexpr std::array<std::size_t, kNumWellKnownMetrics> kMetricSlots = [] {
    std::array<std::size_t, kNumWellKnownMetrics> slots{};
    std::size_t scalars = 0;
    std::size_t histograms = 0;
    for (std::size_t i = 0; i < kNumWellKnownMetrics; ++i) {
        slots[i] = kMetricDefs[i].kind == MetricKind::kHistogram
                       ? histograms++
                       : scalars++;
    }
    return slots;
}();

/// The registry: one plain cell per scalar metric and one Histogram per
/// histogram metric.  The simulator runs on a single host thread, so
/// emission is a plain load-add-store.
class MetricsRegistry {
  public:
    /// The unnamed argument is accepted and ignored: perfbench passes its
    /// core count here, and its sources must build unchanged against
    /// older revisions of this header too.
    explicit MetricsRegistry(std::size_t = 1) {}

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    // -- Write side -------------------------------------------------------

    /// Bumps counter \p m by \p n.
    void add(Metric m, std::uint64_t n = 1) { scalars_[slot(m)] += n; }

    /// Sets gauge \p m to \p v.
    void set(Metric m, std::uint64_t v) { scalars_[slot(m)] = v; }

    /// Records \p value into histogram \p m.
    void
    observe(Metric m, std::uint64_t value)
    {
        histograms_[slot(m)].observe(value);
    }

    // -- Read side --------------------------------------------------------

    /// Scalar value; histograms report their sample count.
    std::uint64_t
    value(Metric m) const
    {
        return metric_kind(m) == MetricKind::kHistogram
                   ? histograms_[slot(m)].count
                   : scalars_[slot(m)];
    }

    /// Histogram snapshot (empty for scalar metrics).
    Histogram
    histogram(Metric m) const
    {
        return metric_kind(m) == MetricKind::kHistogram
                   ? histograms_[slot(m)]
                   : Histogram{};
    }

    /// Zeroes every metric.
    void reset();

    /// One scalar entry for export.
    struct Sample {
        std::string name;
        MetricKind kind;
        std::uint64_t value;  ///< count for histograms.
    };

    /// Snapshot of every metric in `kMetricDefs` order (histograms report
    /// their count; fetch the full distribution via histogram()).  Metrics
    /// that never fired are skipped unless \p include_zeroes.
    std::vector<Sample> snapshot(bool include_zeroes = false) const;

  private:
    static constexpr std::size_t
    slot(Metric m)
    {
        return kMetricSlots[static_cast<std::size_t>(m)];
    }

    std::array<std::uint64_t, kNumScalarMetrics> scalars_{};
    std::array<Histogram, kNumHistogramMetrics> histograms_{};
};

// -- Global hook (null by default, zero-cost when detached) ---------------

namespace detail {
extern MetricsRegistry *g_metrics_sink;  ///< Use metrics_sink() instead.
}  // namespace detail

/// The attached registry, or nullptr.  Inline so the common detached case
/// is a single load + branch at every metric_add site.
inline MetricsRegistry *
metrics_sink()
{
    return detail::g_metrics_sink;
}

inline void
set_metrics_sink(MetricsRegistry *registry)
{
    detail::g_metrics_sink = registry;
}

/// Bumps counter \p m by \p n if a registry is attached.
inline void
metric_add(Metric m, std::uint64_t n = 1)
{
    if (MetricsRegistry *r = metrics_sink())
        r->add(m, n);
}

/// Sets gauge \p m to \p v if a registry is attached.
inline void
metric_set(Metric m, std::uint64_t v)
{
    if (MetricsRegistry *r = metrics_sink())
        r->set(m, v);
}

/// Records \p value into histogram \p m if a registry is attached.
inline void
metric_observe(Metric m, std::uint64_t value)
{
    if (MetricsRegistry *r = metrics_sink())
        r->observe(m, value);
}

/// RAII attachment of a registry (restores the previous sink).
class ScopedMetrics {
  public:
    explicit ScopedMetrics(MetricsRegistry &registry)
        : previous_(metrics_sink())
    {
        set_metrics_sink(&registry);
    }
    ~ScopedMetrics() { set_metrics_sink(previous_); }

    ScopedMetrics(const ScopedMetrics &) = delete;
    ScopedMetrics &operator=(const ScopedMetrics &) = delete;

  private:
    MetricsRegistry *previous_;
};

}  // namespace vdom::telemetry
