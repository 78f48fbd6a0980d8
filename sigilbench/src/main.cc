/**
 * @file
 * sigilbench: runs one benchmark workload and prints its metrics.
 *
 *   sigilbench --workload live_profile|trace_pipeline|query_serve
 *              --seed N --seconds S --trace 0|1
 *              --reference FILE --work-dir DIR [--scale simsmall|...]
 *   sigilbench --print-digests --scale S
 *
 * With --trace 0 the run reports the end-to-end metrics, with --trace 1
 * a separate traced run reports the per-layer metrics. The last line
 * of standard output is one JSON object: correct, attempted, failed,
 * metrics. --print-digests writes the reference-digest lines of every
 * kernel at one scale.
 */

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cg/cg_tool.hh"
#include "common.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"

namespace {

using namespace sigilbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported by every workload with --trace 0; see README.md. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"success_frac", "frac"},
    {"slowdown_x", "x"},
    {"footprint_mb", "MB"},
};

/**
 * Reported by every workload with --trace 1. A layer a workload does
 * not exercise reads 0 there: it did no work.
 */
const MetricDef kPerLayer[] = {
    // live_profile
    {"vg.native_s", "s"},
    {"vg.dispatch_s", "s"},
    {"cg.tool_s", "s"},
    {"core.sigil_s", "s"},
    {"core.finish_s", "s"},
    {"core.profile_write_s", "s"},
    {"vg.reads", "count"},
    {"vg.writes", "count"},
    {"vg.calls", "count"},
    {"vg.contexts", "count"},
    {"shadow.chunks_allocated", "count"},
    {"shadow.chunks_peak", "count"},
    {"shadow.cold_arrays", "count"},
    {"shadow.bytes_peak", "B"},
    {"shadow.stamp_writers", "count"},
    {"shadow.stamp_readers", "count"},
    {"shadow.stamp_bytes", "B"},
    // trace_pipeline
    {"vg.record_s", "s"},
    {"vg.trace_map_s", "s"},
    {"vg.decode_s", "s"},
    {"core.replay_sigil_s", "s"},
    {"vg.trace_bytes", "B"},
    {"vg.trace_frames", "count"},
    {"vg.events_delivered", "count"},
    {"vg.events_skipped", "count"},
    {"vg.resyncs", "count"},
    // query_serve
    {"server.function_p50_us", "us"},
    {"server.edges_p50_us", "us"},
    {"server.summary_p50_us", "us"},
    {"server.list_p50_us", "us"},
    {"server.profile_p50_us", "us"},
    {"server.diff_p50_us", "us"},
    {"server.partition_p50_us", "us"},
    {"core.render_function_us", "us"},
    {"core.render_edges_us", "us"},
    {"core.render_summary_us", "us"},
    {"core.render_profile_us", "us"},
    {"core.render_diff_us", "us"},
    {"cdfg.partition_render_us", "us"},
    {"server.overhead_p50_us", "us"},
    {"server.load_p50_ms", "ms"},
    {"server.requests_served", "count"},
    {"server.protocol_errors", "count"},
    {"server.timeouts", "count"},
    {"server.connections", "count"},
    {"server.catalog_evictions", "count"},
    {"server.response_bytes", "B"},
    // every workload
    {"trace.overhead_frac", "frac"},
    {"layer_sum.residual_frac", "frac"},
};

/** Why this binary must not produce benchmark numbers, or nullptr. */
const char *
buildRefusal()
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "not an optimized NDEBUG build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer build";
#endif
    if (std::strcmp(SIGILBENCH_BUILD_TYPE, "Debug") == 0)
        return "a Debug build";
    if (std::strstr(SIGILBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        return "a sanitizer build";
    return nullptr;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printManifest()
{
    struct utsname u {};
    uname(&u);
    std::printf("manifest {\"nproc\": %ld, \"cpu_model\": \"%s\", "
                "\"kernel\": \"%s %s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"cxx_flags\": \"%s\"}\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(cpuModel()).c_str(), u.sysname, u.release,
                jsonEscape(__VERSION__).c_str(), SIGILBENCH_BUILD_TYPE,
                jsonEscape(SIGILBENCH_CXX_FLAGS).c_str());
}

bool
parseScale(const std::string &s, sigil::workloads::Scale *scale)
{
    // reference_digests.txt covers these two scales only.
    for (auto sc : {sigil::workloads::Scale::SimSmall,
                    sigil::workloads::Scale::SimMedium})
        if (s == sigil::workloads::scaleName(sc)) {
            *scale = sc;
            return true;
        }
    return false;
}

/** --print-digests: one reference line per kernel, from a live pass. */
int
printDigests(sigil::workloads::Scale scale)
{
    for (const auto &w : sigil::workloads::parsecWorkloads()) {
        sigil::vg::Guest guest(w.name);
        sigil::cg::CgTool cg;
        sigil::core::SigilProfiler sigil;
        guest.addTool(&cg);
        guest.addTool(&sigil);
        w.run(guest, scale);
        guest.finish();
        std::ostringstream os;
        sigil::core::writeProfile(os, sigil.takeProfile());
        std::printf("%s %s %zu %016llx\n", w.name.c_str(),
                    sigil::workloads::scaleName(scale), os.str().size(),
                    static_cast<unsigned long long>(digest(os.str())));
    }
    return 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "sigilbench: %s\nusage: sigilbench --workload "
                 "live_profile|trace_pipeline|query_serve --seed N "
                 "--seconds S --trace 0|1 --reference FILE --work-dir DIR "
                 "[--scale simsmall|simmedium]\n"
                 "       sigilbench --print-digests [--scale S]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *why = buildRefusal()) {
        std::fprintf(stderr, "sigilbench: refusing to run: %s\n", why);
        return 3;
    }

    Options opt;
    bool print_digests = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--print-digests") {
            print_digests = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value after " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
                have_seconds = opt.seconds > 0;
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                have_trace = true;
            } else if (a == "--scale") {
                if (!parseScale(v, &opt.scale))
                    return usage(("unknown scale " + v).c_str());
            } else if (a == "--reference") {
                opt.referencePath = v;
            } else if (a == "--work-dir") {
                opt.workDir = v;
            } else {
                return usage(("unknown option " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (print_digests)
        return printDigests(opt.scale);

    Outcome (*run)(const Options &, const References &) = nullptr;
    if (opt.workload == "live_profile")
        run = runLiveProfile;
    else if (opt.workload == "trace_pipeline")
        run = runTracePipeline;
    else if (opt.workload == "query_serve")
        run = runQueryServe;
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace ||
        opt.referencePath.empty() || opt.workDir.empty())
        return usage("--seed, --seconds, --trace, --reference and "
                     "--work-dir are required");

    References refs;
    std::string err;
    if (!refs.load(opt.referencePath, &err))
        return usage(err.c_str());
    std::filesystem::create_directories(opt.workDir);
    std::filesystem::remove(opt.workDir + "/spans-" + opt.workload +
                            ".jsonl");

    printManifest();
    std::fflush(stdout);
    Outcome out = run(opt, refs);
    // A workload that measures its own peak (query_serve) keeps it.
    out.values.emplace("peak_rss_mb", peakRssMb());
    if (out.attempted > 0)
        out.values["success_frac"] =
            static_cast<double>(out.attempted - out.failed) /
            static_cast<double>(out.attempted);

    if (out.attempted == 0) { // nothing ran: report it as one failure
        out.attempted = 1;
        out.failed = 1;
    }
    bool correct = out.failed == 0;
    std::string metrics;
    std::printf("%-26s %16s  %s\n", "metric", "value", "unit");
    auto emit = [&](const MetricDef &m, bool required) {
        auto it = out.values.find(m.name);
        double v = it == out.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v) || (required && !(v > 0))) {
            std::fprintf(stderr, "FAIL metric %s is %g\n", m.name, v);
            correct = false;
            v = 0.0;
        }
        std::printf("%-26s %16.6f  %s%s\n", m.name, v, m.unit,
                    it == out.values.end() ? "  (not exercised)" : "");
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name, v, m.unit);
        metrics += buf;
    };
    if (opt.trace)
        for (const MetricDef &m : kPerLayer)
            emit(m, false);
    else
        for (const MetricDef &m : kEndToEnd)
            emit(m, true);
    for (const std::string &note : out.notes)
        std::printf("%s\n", note.c_str());
    std::printf("failed_frac %.6f (%llu of %llu operations failed)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
