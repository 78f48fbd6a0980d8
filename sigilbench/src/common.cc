#include "common.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace sigilbench {

std::vector<sigil::workloads::Workload>
shuffledKernels(Rng &rng)
{
    std::vector<sigil::workloads::Workload> ks =
        sigil::workloads::parsecWorkloads();
    for (std::size_t i = ks.size(); i > 1; --i)
        std::swap(ks[i - 1], ks[rng.below(i)]);
    return ks;
}

namespace {

void
nativePasses(const Options &opt,
             const std::vector<sigil::workloads::Workload> &kernels)
{
    for (const sigil::workloads::Workload &w : kernels) {
        sigil::vg::Guest guest(w.name);
        w.run(guest, opt.scale);
        guest.finish();
    }
}

} // namespace

double
nativeWarmUp(const Options &opt, Rng &rng, int rounds)
{
    double t0 = nowSeconds();
    for (int r = 0; r < rounds; ++r)
        nativePasses(opt, shuffledKernels(rng));
    return nowSeconds() - t0;
}

double
hostProbe(const Options &opt)
{
    double t0 = nowSeconds();
    nativePasses(opt, sigil::workloads::parsecWorkloads());
    return nowSeconds() - t0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
Histogram::add(double seconds)
{
    std::size_t b = 0;
    if (seconds > kMin)
        b = std::min(kBuckets - 1,
                     static_cast<std::size_t>(std::log(seconds / kMin) /
                                              std::log(kGrowth)));
    ++counts_[b];
    ++total_;
    sum_ += seconds;
}

void
Histogram::merge(const Histogram &other)
{
    for (std::size_t b = 0; b < kBuckets; ++b)
        counts_[b] += other.counts_[b];
    total_ += other.total_;
    sum_ += other.sum_;
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (counts_[b] == 0)
            continue;
        if (static_cast<double>(seen + counts_[b]) > rank) {
            double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(counts_[b]);
            return kMin * std::pow(kGrowth, static_cast<double>(b) + frac);
        }
        seen += counts_[b];
    }
    return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
}

double
SetupSchedule::median() const
{
    return sigilbench::median(scaled_);
}

std::string
SetupSchedule::note(const char *workload) const
{
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s set-up: %zu repetitions, median %.4f s as measured, "
                  "host probe median %.2f ms (reference %.2f ms)",
                  workload, times_.size(), sigilbench::median(times_),
                  1e3 * sigilbench::median(probes_),
                  1e3 * kProbeReferenceSeconds);
    return line;
}

double
KernelSamples::sumOfMedians() const
{
    double sum = 0.0;
    for (const auto &[kernel, v] : samples_)
        sum += median(v);
    return sum;
}

double
KernelSamples::pairedRatio(const KernelSamples &base) const
{
    double num = 0.0, den = 0.0;
    for (const auto &[kernel, v] : samples_) {
        auto it = base.samples_.find(kernel);
        if (it == base.samples_.end())
            continue;
        double b = median(it->second);
        num += b * median(v);
        den += b;
    }
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
releaseFreeHeap()
{
    malloc_trim(0);
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t
digest(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
References::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read reference digests " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kernel, scale, hex;
        Entry e;
        if (!(ls >> kernel >> scale >> e.bytes >> hex)) {
            *err = path + ":" + std::to_string(lineno) + ": bad line";
            return false;
        }
        e.digest = std::stoull(hex, nullptr, 16);
        entries_[kernel + " " + scale] = e;
    }
    return true;
}

bool
References::check(const std::string &kernel, sigil::workloads::Scale scale,
                  std::string_view profile_bytes) const
{
    std::string key = kernel + " " + sigil::workloads::scaleName(scale);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        std::fprintf(stderr, "FAIL %s: no reference digest\n", key.c_str());
        return false;
    }
    std::uint64_t d = digest(profile_bytes);
    if (it->second.bytes != profile_bytes.size() ||
        it->second.digest != d) {
        std::fprintf(stderr,
                     "FAIL %s: profile %zu B digest %016llx, reference "
                     "%llu B %016llx\n",
                     key.c_str(), profile_bytes.size(),
                     static_cast<unsigned long long>(d),
                     static_cast<unsigned long long>(it->second.bytes),
                     static_cast<unsigned long long>(it->second.digest));
        return false;
    }
    return true;
}

double
SpanLog::totalSeconds(const char *name, std::size_t from) const
{
    std::int64_t ns = 0;
    for (std::size_t i = from; i < spans_.size(); ++i)
        if (std::string_view(spans_[i].name) == name)
            ns += spans_[i].endNs - spans_[i].startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double>
SpanLog::selfSeconds(std::size_t from) const
{
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        std::int64_t d = spans_[i].endNs - spans_[i].startNs;
        self[i] += d;
        std::int32_t p = spans_[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) >= from)
            self[p] -= d;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

bool
SpanLog::writeJsonLines(const std::string &path,
                        const std::string &thread) const
{
    std::ofstream os(path, std::ios::app);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"thread\":\"" << thread << "\",\"id\":" << i
           << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
           << "\",\"request\":" << s.request << ",\"start_ns\":"
           << s.startNs << ",\"end_ns\":" << s.endNs << "}\n";
    }
    return static_cast<bool>(os);
}

void
layerSumCheck(Outcome &out, const char *workload, double end_to_end_s,
              const std::vector<std::pair<std::string, double>> &layers)
{
    double sum = 0.0;
    for (const auto &[name, s] : layers) {
        sum += s;
        out.notes.push_back("layer-sum " + std::string(workload) + "  " +
                            name + " " + std::to_string(s) + " s");
    }
    double residual = end_to_end_s - sum;
    double frac = end_to_end_s > 0 ? residual / end_to_end_s : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "layer-sum %s  end_to_end %.6f s, layers %.6f s, "
                  "residual.%s %.6f s (%+.2f%%): %s",
                  workload, end_to_end_s, sum, workload, residual,
                  100.0 * frac,
                  std::fabs(frac) <= 0.10 ? "within 10%" : "OVER 10%");
    out.notes.push_back(line);
    out.values["layer_sum.residual_frac"] = frac;
}

} // namespace sigilbench
