#include "metrics/bench_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "baselines/factory.h"
#include "common/env.h"
#include "metrics/speedup.h"

namespace hoard {
namespace metrics {

const char*
to_string(Better better)
{
    switch (better) {
      case Better::higher:
        return "higher";
      case Better::lower:
        return "lower";
      case Better::info:
        return "info";
    }
    return "info";
}

BenchReport::BenchReport(std::string bench, bool quick)
    : bench_(std::move(bench)), quick_(quick)
{}

void
BenchReport::set_config(const Config& config)
{
    has_config_ = true;
    config_ = config;
}

void
BenchReport::add_metric(const std::string& key, double value,
                        const std::string& unit, Better better)
{
    MetricSample sample;
    sample.key = key;
    sample.value = value;
    sample.unit = unit;
    sample.better = better;
    metrics_.push_back(std::move(sample));
}

void
BenchReport::add_speedup_result(const SpeedupResult& result)
{
    const SpeedupOptions& opt = result.options;
    for (std::size_t pi = 0; pi < opt.procs.size(); ++pi) {
        for (std::size_t ki = 0; ki < opt.kinds.size(); ++ki) {
            const SpeedupCell& c = result.cells[pi][ki];
            const std::string kind =
                baselines::to_string(opt.kinds[ki]);
            const std::string suffix =
                kind + "/p" + std::to_string(opt.procs[pi]);

            // Speedup is the paper's y-axis and the primary gate; the
            // makespan is the raw measurement behind it (lower is
            // better, but gating both would double-count).
            add_metric("speedup/" + suffix, c.speedup, "x",
                       Better::higher);
            add_metric("makespan/" + suffix,
                       static_cast<double>(c.makespan), "cycles",
                       Better::info);

            JsonValue cell = JsonValue::make_object();
            cell.set("figure", JsonValue::make_string(
                                   title_.empty() ? bench_ : title_));
            cell.set("allocator", JsonValue::make_string(kind));
            cell.set("procs", JsonValue::make_number(
                                  static_cast<double>(opt.procs[pi])));
            cell.set("makespan",
                     JsonValue::make_number(
                         static_cast<double>(c.makespan)));
            cell.set("speedup", JsonValue::make_number(c.speedup));
            cell.set("lock_contentions",
                     JsonValue::make_number(
                         static_cast<double>(c.lock_contentions)));
            cell.set("remote_transfers",
                     JsonValue::make_number(
                         static_cast<double>(c.remote_transfers)));
            if (opt.observability || !opt.trace_dir.empty()) {
                JsonValue obs = JsonValue::make_object();
                obs.set("heap_lock_acquires",
                        JsonValue::make_number(static_cast<double>(
                            c.heap_lock_acquires)));
                obs.set("heap_lock_contended",
                        JsonValue::make_number(static_cast<double>(
                            c.heap_lock_contended)));
                obs.set("trace_events",
                        JsonValue::make_number(
                            static_cast<double>(c.trace_events)));
                obs.set("timeline_samples",
                        JsonValue::make_number(static_cast<double>(
                            c.timeline_samples)));
                cell.set("obs", std::move(obs));
            }
            cells_.append(std::move(cell));
        }
    }
    if (!opt.procs.empty())
        set_config(opt.base_config);
}

JsonValue
BenchReport::environment_json()
{
    JsonValue env = JsonValue::make_object();
#ifdef __VERSION__
    env.set("compiler", JsonValue::make_string(__VERSION__));
#else
    env.set("compiler", JsonValue::make_string("unknown"));
#endif
    env.set("pointer_bits",
            JsonValue::make_number(sizeof(void*) * 8.0));
    env.set("obs_env", JsonValue::make_bool(
                           detail::env_flag("HOARD_OBS").value_or(false)));
    env.set("hardware_threads",
            JsonValue::make_number(static_cast<double>(
                std::thread::hardware_concurrency())));
    return env;
}

JsonValue
BenchReport::to_json() const
{
    JsonValue doc = JsonValue::make_object();
    doc.set("schema", JsonValue::make_string(kSchema));
    doc.set("bench", JsonValue::make_string(bench_));
    if (!title_.empty())
        doc.set("title", JsonValue::make_string(title_));
    doc.set("quick", JsonValue::make_bool(quick_));
    doc.set("environment", environment_json());

    if (has_config_) {
        JsonValue config = JsonValue::make_object();
        config.set("superblock_bytes",
                   JsonValue::make_number(static_cast<double>(
                       config_.superblock_bytes)));
        config.set("empty_fraction",
                   JsonValue::make_number(config_.empty_fraction));
        config.set("slack_superblocks",
                   JsonValue::make_number(static_cast<double>(
                       config_.slack_superblocks)));
        config.set("release_threshold",
                   JsonValue::make_number(config_.release_threshold));
        config.set("heap_count",
                   JsonValue::make_number(
                       static_cast<double>(config_.heap_count)));
        config.set("thread_cache_blocks",
                   JsonValue::make_number(static_cast<double>(
                       config_.thread_cache_blocks)));
        config.set("thread_cache_batch",
                   JsonValue::make_number(static_cast<double>(
                       config_.thread_cache_batch)));
        config.set("observability",
                   JsonValue::make_bool(config_.observability));
        config.set("obs_sample_interval",
                   JsonValue::make_number(static_cast<double>(
                       config_.obs_sample_interval)));
        doc.set("config", std::move(config));
    }

    JsonValue metrics = JsonValue::make_array();
    for (const MetricSample& m : metrics_) {
        JsonValue entry = JsonValue::make_object();
        entry.set("key", JsonValue::make_string(m.key));
        entry.set("value", JsonValue::make_number(m.value));
        entry.set("unit", JsonValue::make_string(m.unit));
        entry.set("better",
                  JsonValue::make_string(to_string(m.better)));
        metrics.append(std::move(entry));
    }
    doc.set("metrics", std::move(metrics));

    if (!cells_.items().empty())
        doc.set("cells", cells_);
    return doc;
}

void
BenchReport::write(std::ostream& os) const
{
    to_json().write(os);
    os.flush();
}

bool
BenchReport::write_file(const std::string& path) const
{
    std::ofstream os(path);
    if (!os) {
        std::perror(path.c_str());
        return false;
    }
    write(os);
    return os.good();
}

namespace {

/**
 * Flattens one document's gated metrics into @p out with keys
 * "<bench>/<metric key>".  Accepts both a single report and a suite
 * document (which nests reports under "benches").
 */
void
collect_metrics(const JsonValue& doc, const std::string& prefix,
                std::vector<MetricSample>& out)
{
    if (const JsonValue* benches = doc.find("benches")) {
        for (const auto& member : benches->members())
            collect_metrics(member.second, member.first + "/", out);
        return;
    }
    const JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr || !metrics->is_array())
        return;
    for (const JsonValue& entry : metrics->items()) {
        MetricSample sample;
        sample.key = prefix + entry.string_or("key", "");
        sample.value = entry.number_or("value", 0.0);
        sample.unit = entry.string_or("unit", "");
        std::string better = entry.string_or("better", "info");
        sample.better = better == "higher"  ? Better::higher
                        : better == "lower" ? Better::lower
                                            : Better::info;
        if (!sample.key.empty() && sample.key != prefix)
            out.push_back(std::move(sample));
    }
}

}  // namespace

CompareResult
compare_reports(const JsonValue& base, const JsonValue& next,
                double max_regress_pct)
{
    std::vector<MetricSample> base_metrics, next_metrics;
    collect_metrics(base, "", base_metrics);
    collect_metrics(next, "", next_metrics);

    CompareResult result;
    for (const MetricSample& b : base_metrics) {
        const MetricSample* n = nullptr;
        for (const MetricSample& candidate : next_metrics) {
            if (candidate.key == b.key) {
                n = &candidate;
                break;
            }
        }
        if (n == nullptr) {
            result.missing.push_back(b.key);
            continue;
        }
        if (b.better == Better::info)
            continue;

        MetricDelta delta;
        delta.key = b.key;
        delta.base = b.value;
        delta.next = n->value;
        delta.better = b.better;
        const double denom = std::fabs(b.value);
        if (denom > 0.0) {
            delta.change_pct = (n->value - b.value) / denom * 100.0;
        } else {
            // From exactly zero any worsening is infinite-percent;
            // flag only genuine movement in the worse direction.
            delta.change_pct = n->value == 0.0 ? 0.0
                               : n->value > 0.0
                                   ? 100.0 * (1.0 + max_regress_pct)
                                   : -100.0 * (1.0 + max_regress_pct);
        }
        const double worse = b.better == Better::higher
                                 ? -delta.change_pct
                                 : delta.change_pct;
        delta.regression = worse > max_regress_pct;
        if (delta.regression)
            ++result.regressions;
        result.deltas.push_back(std::move(delta));
    }
    return result;
}

}  // namespace metrics
}  // namespace hoard
