/**
 * @file
 * Shared pieces of the sigil benchmark: options, the metric record a
 * workload returns, the reference-digest gate, the seeded kernel
 * order, order statistics, and the span recorder of traced runs.
 */

#ifndef SIGILBENCH_COMMON_HH
#define SIGILBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/workload.hh"

namespace sigilbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    sigil::workloads::Scale scale = sigil::workloads::Scale::SimMedium;
    /** Reference digests the profiles are checked against. */
    std::string referencePath;
    /** Scratch directory for traces, sockets and the span dump. */
    std::string workDir;
};

/**
 * What a workload run returns to main(): metric values by name (the
 * units live in main's metric tables), operation counts for the
 * correctness gate, and extra human-readable lines.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values;
    std::vector<std::string> notes;

    /** Count one checked operation; returns ok. */
    bool
    count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
        return ok;
    }
};

/** Monotonic seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** splitmix64: a small seeded generator with portable output. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** The 13 PARSEC kernels, shuffled by rng. */
std::vector<sigil::workloads::Workload> shuffledKernels(Rng &rng);

/**
 * Set-up shared by the kernel workloads: rounds native passes of every
 * kernel, in rng order. Returns its seconds.
 */
double nativeWarmUp(const Options &opt, Rng &rng, int rounds);

/** Median of values (0 when empty). */
double median(std::vector<double> values);

/** The q-quantile (0..1) by linear interpolation (0 when empty). */
double quantile(std::vector<double> values, double q);

/**
 * The host-speed probe: one native pass of every kernel, in registry
 * order. Returns its seconds.
 */
double hostProbe(const Options &opt);

/** hostProbe()'s seconds at simmedium on the reference host (README.md). */
constexpr double kProbeReferenceSeconds = 0.070;

/**
 * Set-up repetitions spread over a run: the first is due at once, the
 * others at even fractions of the run's seconds, so their median
 * samples the host's state across the whole run rather than in one
 * burst at its start. Each repetition is bracketed by two host probes
 * and reported in reference seconds: its seconds times
 * kProbeReferenceSeconds over the probes' mean. A shared host's speed
 * can drift by a quarter over minutes, which the set-up and the native
 * probe feel alike; work moved into set-up still shows.
 */
class SetupSchedule
{
  public:
    SetupSchedule(std::size_t reps, const Options &opt)
        : reps_(reps), seconds_(opt.seconds), start_(nowSeconds()),
          opt_(opt)
    {}

    /** Run fn, which returns its seconds, if a repetition is due. */
    template <typename Fn>
    bool
    runIfDue(Fn &&fn)
    {
        if (done() || elapsed() < nextDue())
            return false;
        double before = hostProbe(opt_);
        double seconds = fn();
        double probe = (before + hostProbe(opt_)) / 2;
        times_.push_back(seconds);
        probes_.push_back(probe);
        scaled_.push_back(seconds * kProbeReferenceSeconds / probe);
        return true;
    }

    bool done() const { return times_.size() >= reps_; }

    /** True while set-ups are pending or the run's seconds remain. */
    bool running() const { return !done() || elapsed() < seconds_; }

    double elapsed() const { return nowSeconds() - start_; }

    /** Seconds until the next repetition is due, or until the run ends. */
    double
    secondsLeft() const
    {
        return (done() ? seconds_ : nextDue()) - elapsed();
    }

    /** Median set-up time in reference seconds: the setup_s metric. */
    double median() const;

    /** One line: repetitions, median as measured, median probe. */
    std::string note(const char *workload) const;

  private:
    /** When, in elapsed seconds, the next repetition is due. */
    double
    nextDue() const
    {
        return static_cast<double>(times_.size()) * seconds_ /
               static_cast<double>(reps_);
    }

    std::size_t reps_;
    double seconds_;
    double start_;
    const Options &opt_;
    std::vector<double> times_, probes_, scaled_;
};

/** Timing samples per kernel. */
class KernelSamples
{
  public:
    void add(const std::string &kernel, double seconds)
    {
        samples_[kernel].push_back(seconds);
    }

    /** Sum over kernels of each kernel's median. */
    double sumOfMedians() const;

    /**
     * The suite's ratio over a baseline from per-kernel paired ratios:
     * sum over kernels of median(base) * median(this), divided by the
     * sum of median(base). Each sample of this is one pass's time over
     * its adjacent baseline passes, so host slow-downs that last
     * longer than a pair cancel out.
     */
    double pairedRatio(const KernelSamples &base) const;

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/**
 * Fixed-memory latency histogram: log buckets 0.5% wide from 10 ns to
 * 100 s, so a long run's samples do not grow the process's footprint.
 * Quantiles interpolate within a bucket.
 */
class Histogram
{
  public:
    Histogram() : counts_(kBuckets, 0) {}

    void add(double seconds);
    void merge(const Histogram &other);
    std::uint64_t count() const { return total_; }
    double sum() const { return sum_; }

    /** The q-quantile (0..1) in seconds; 0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr double kMin = 1e-8;
    static constexpr double kGrowth = 1.005;
    static constexpr std::size_t kBuckets = 4620; // up to ~100 s

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/** Peak resident set of this process (VmHWM), in MB. */
double peakRssMb();

/** Restart the peak-resident-set count from the current resident set. */
void resetPeakRss();

/**
 * Return the heap's free pages to the system (glibc malloc_trim).
 * Called before each kernel pass, outside its timing: a user profiles
 * one program per process, so one pass's freed heap must not raise
 * the next pass's resident set, whichever kernel the seed put first.
 */
void releaseFreeHeap();

/** 64-bit FNV-1a digest of a byte string. */
std::uint64_t digest(std::string_view bytes);

/**
 * The correctness gate: reference profile digests, one per kernel and
 * scale, stored with the benchmark. Every profile a workload produces
 * goes through check(), and each mismatch is a failed operation.
 */
class References
{
  public:
    /** Load "kernel scale bytes digest" lines; false on a bad file. */
    bool load(const std::string &path, std::string *err);

    /**
     * True when profile_bytes match the reference of kernel at scale.
     * A mismatch, or a missing reference, is reported on stderr.
     */
    bool check(const std::string &kernel, sigil::workloads::Scale scale,
               std::string_view profile_bytes) const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        std::uint64_t digest = 0;
    };
    std::map<std::string, Entry> entries_;
};

/**
 * In-memory span log of a traced run. A span covers one call into a
 * layer, made from the benchmark's own code: a kernel pass, one
 * BinaryReplaySession::step() frame, one query request. Spans nest
 * through a per-log stack, so each log belongs to one thread.
 * Nothing is recorded when tracing is off (a null log).
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::int32_t parent; ///< index of the enclosing span, or -1
        std::uint64_t request;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    /** Open a span; returns its index. */
    std::int32_t
    open(const char *name, std::uint64_t request)
    {
        std::int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, parent, request, clockNs(), 0});
        std::int32_t id = static_cast<std::int32_t>(spans_.size() - 1);
        stack_.push_back(id);
        return id;
    }

    void
    close(std::int32_t id)
    {
        spans_[id].endNs = clockNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds covered by spans [from, end) named name. */
    double totalSeconds(const char *name, std::size_t from = 0) const;

    /**
     * Self seconds per span name over spans [from, end): each span's
     * duration minus the part its child spans cover.
     */
    std::map<std::string, double> selfSeconds(std::size_t from = 0) const;

    /** Append every span as one JSON line to path. */
    bool writeJsonLines(const std::string &path,
                        const std::string &thread) const;

    static std::int64_t
    clockNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a no-op when log is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t request = 0)
        : log_(log), id_(log ? log->open(name, request) : -1)
    {}

    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::int32_t id_;
};

/**
 * The layer-sum check: print each layer's time, the named residual
 * (end_to_end minus the layer sum) and whether it is within 10%.
 * Adds the residual share as per-layer metric layer_sum.residual_frac.
 */
void layerSumCheck(Outcome &out, const char *workload,
                   double end_to_end_s,
                   const std::vector<std::pair<std::string, double>> &layers);

/** @name Workloads */
/// @{
Outcome runLiveProfile(const Options &opt, const References &refs);
Outcome runTracePipeline(const Options &opt, const References &refs);
Outcome runQueryServe(const Options &opt, const References &refs);
/// @}

} // namespace sigilbench

#endif // SIGILBENCH_COMMON_HH
