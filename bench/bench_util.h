/// \file
/// Shared benchmark plumbing: world construction, measurement helpers,
/// paper-reference annotations.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "kernel/process.h"
#include "sim/table.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "vdom/api.h"

namespace vdom::bench {

/// One self-contained simulated world.
struct BenchWorld {
    hw::Machine machine;
    kernel::Process proc;
    VdomSystem sys;

    explicit BenchWorld(const hw::ArchParams &params)
        : machine(params), proc(machine), sys(proc)
    {
    }

    hw::Core &core(std::size_t i = 0) { return machine.core(i); }

    kernel::Task *
    spawn(std::size_t core_id = 0)
    {
        kernel::Task *task = proc.create_task();
        proc.switch_to(machine.core(core_id), *task, false);
        return task;
    }
};

/// True when \p flag appears in argv.
inline bool
flag_set(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/// Strict command line: a typo, or a flag this bench does not take,
/// must not silently run the default.  Every bench takes
/// `--json out.json`; \p switches are its other bare flags and \p values
/// its other flags that take a value, each written "--flag meta" for the
/// usage line.  On anything else prints why and the usage line and
/// returns false; the bench then exits 2.
inline bool
args_ok(const char *bench, int argc, char **argv,
        std::vector<std::string_view> switches = {},
        std::vector<std::string_view> values = {})
{
    values.insert(values.begin(), "--json out.json");
    std::string usage = std::string("usage: ") + bench;
    for (const auto *forms : {&switches, &values})
        for (std::string_view form : *forms)
            usage.append(" [").append(form).append("]");
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto names_arg = [arg](std::string_view form) {
            return form.substr(0, form.find(' ')) == arg;
        };
        if (std::any_of(switches.begin(), switches.end(), names_arg))
            continue;
        if (!std::any_of(values.begin(), values.end(), names_arg))
            std::fprintf(stderr, "%s: unknown option '%s'\n", bench, argv[i]);
        else if (++i < argc)
            continue;
        else
            std::fprintf(stderr, "%s: %s requires a value\n", bench,
                         argv[i - 1]);
        std::fprintf(stderr, "%s\n", usage.c_str());
        return false;
    }
    return true;
}

/// Formats "measured (paper X)" cells.
inline std::string
vs_paper(double measured, double paper, int digits = 0)
{
    return sim::Table::num(measured, digits) + " (" +
           sim::Table::num(paper, digits) + ")";
}

/// Formats a ratio as "x.xx" with a multiplier suffix.
inline std::string
ratio(double value)
{
    return sim::Table::num(value, 2) + "x";
}

/// Value of `--flag <value>` in argv, or "" when absent.
inline std::string
arg_value(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return "";
}

/// One machine-readable measurement: the schema every bench emits under
/// --json (see scripts/check_bench_json.py):
///   {bench, config{...}, metrics{...}, breakdown{...},
///    percentiles{p50,p90,p99}}
class BenchRecord {
  public:
    BenchRecord &
    config(const std::string &key, const std::string &value)
    {
        config_.emplace_back(key, telemetry::JsonWriter::escape(value));
        return *this;
    }

    BenchRecord &
    config(const std::string &key, std::uint64_t value)
    {
        config_.emplace_back(key, std::to_string(value));
        return *this;
    }

    BenchRecord &
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
        return *this;
    }

    /// Pulls every non-zero merged counter/gauge out of \p registry into
    /// the metrics map (prefixed names, e.g. "tlb.miss").
    BenchRecord &
    metrics_from(const telemetry::MetricsRegistry &registry)
    {
        for (const auto &sample : registry.snapshot())
            metrics_.emplace_back(sample.name,
                                  static_cast<double>(sample.value));
        return *this;
    }

    BenchRecord &
    breakdown(const hw::CycleBreakdown &b)
    {
        breakdown_ = b;
        return *this;
    }

    BenchRecord &
    percentiles(double p50, double p90, double p99)
    {
        p50_ = p50;
        p90_ = p90;
        p99_ = p99;
        return *this;
    }

    BenchRecord &
    percentiles_from(const telemetry::Histogram &hist)
    {
        return percentiles(static_cast<double>(hist.percentile(0.50)),
                           static_cast<double>(hist.percentile(0.90)),
                           static_cast<double>(hist.percentile(0.99)));
    }

  private:
    friend class BenchReport;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    hw::CycleBreakdown breakdown_;
    double p50_ = 0, p90_ = 0, p99_ = 0;
};

/// The compiler that built the bench, e.g. "gcc 12.2.0".
inline std::string
compiler_name()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// Collects BenchRecords and writes them as a JSON array when the bench
/// was invoked with `--json <path>`.  With no --json flag everything is a
/// no-op, so benches can record unconditionally.  The array opens with
/// one meta record that says which code produced the rest:
///   {meta{bench, git_rev, build_type, compiler, host_cpus}}
/// git_rev and build_type are fixed when CMake configures bench/.
class BenchReport {
  public:
    BenchReport(std::string bench, int argc, char **argv)
        : bench_(std::move(bench)), path_(arg_value(argc, argv, "--json"))
    {
    }

    bool enabled() const { return !path_.empty(); }

    /// Appends and returns a fresh record.
    BenchRecord &
    add()
    {
        records_.emplace_back();
        return records_.back();
    }

    /// Writes the JSON array; prints a note so runs are self-describing.
    /// Returns false when disabled or the file cannot be opened.
    bool
    write() const
    {
        if (!enabled())
            return false;
        std::ofstream out(path_);
        if (!out) {
            std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
            return false;
        }
        telemetry::JsonWriter w(out);
        w.begin_array();
        write_meta(w);
        for (const BenchRecord &rec : records_)
            write_record(w, rec);
        w.end_array();
        out << "\n";
        std::fprintf(stderr, "bench: wrote %zu record(s) to %s\n",
                     records_.size(), path_.c_str());
        return true;
    }

  private:
    void
    write_meta(telemetry::JsonWriter &w) const
    {
        w.begin_object();
        w.key("meta").begin_object();
        w.key("bench").value(bench_);
        w.key("git_rev").value(VDOM_GIT_REV);
        w.key("build_type").value(VDOM_BUILD_TYPE);
        w.key("compiler").value(compiler_name());
        w.key("host_cpus").value(
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
        w.end_object();
        w.end_object();
    }

    void
    write_record(telemetry::JsonWriter &w, const BenchRecord &rec) const
    {
        w.begin_object();
        w.key("bench").value(bench_);
        w.key("config").begin_object();
        for (const auto &[k, pre_rendered] : rec.config_)
            w.key(k).raw(pre_rendered);
        w.end_object();
        w.key("metrics").begin_object();
        for (const auto &[k, v] : rec.metrics_)
            w.key(k).value(v);
        w.end_object();
        w.key("breakdown").begin_object();
        for (std::size_t i = 0; i < hw::kNumCostKinds; ++i) {
            w.key(hw::cost_kind_name(static_cast<hw::CostKind>(i)))
                .value(static_cast<std::uint64_t>(rec.breakdown_.by_kind[i]));
        }
        w.end_object();
        w.key("percentiles").begin_object();
        w.key("p50").value(rec.p50_);
        w.key("p90").value(rec.p90_);
        w.key("p99").value(rec.p99_);
        w.end_object();
        w.end_object();
    }

    std::string bench_;
    std::string path_;
    std::vector<BenchRecord> records_;
};

}  // namespace vdom::bench
