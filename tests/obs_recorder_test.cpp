#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/control.h"
#include "obs/trace.h"
#include "util/json.h"

namespace bb::obs {
namespace {

// The recorder snapshots the kill switch at construction; force a known
// state per test and restore the default afterwards.
class ObsOn {
public:
    ObsOn() { set_enabled(true); }
    ~ObsOn() { set_enabled(true); }
};

Recorder::Config small_cfg() {
    Recorder::Config cfg;
    cfg.interval_ns = 100;
    cfg.budget_bins = 64;
    cfg.max_annotations = 4;
    return cfg;
}

TEST(Recorder, GaugeProbesRecordLevels) {
    ObsOn guard;
    Recorder rec{small_cfg()};
    double level = 1.0;
    rec.add_probe("g", TimeSeries::Kind::gauge, [&level] { return level; });

    rec.sample(0);
    level = 5.0;
    rec.sample(100);

    const TimeSeries* ts = rec.find("g");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->samples(), 2u);
    EXPECT_DOUBLE_EQ(ts->bins()[0].last, 1.0);
    EXPECT_DOUBLE_EQ(ts->bins()[1].last, 5.0);
    EXPECT_EQ(rec.samples(), 2u);
}

TEST(Recorder, CounterProbesArePrimedAndRecordDeltas) {
    ObsOn guard;
    Recorder rec{small_cfg()};
    // A process-global counter would already be at 1000 when the recorder
    // attaches; the primed baseline keeps that history out of the series.
    double total = 1000.0;
    rec.add_probe("c", TimeSeries::Kind::counter, [&total] { return total; });

    total += 3.0;
    rec.sample(0);
    total += 7.0;
    rec.sample(100);

    const TimeSeries* ts = rec.find("c");
    ASSERT_NE(ts, nullptr);
    EXPECT_DOUBLE_EQ(ts->bins()[0].sum, 3.0);
    EXPECT_DOUBLE_EQ(ts->bins()[1].sum, 7.0);
    EXPECT_DOUBLE_EQ(ts->total_sum(), 10.0);
}

TEST(Recorder, AnnotationCapCountsOverflow) {
    ObsOn guard;
    Recorder rec{small_cfg()};  // max_annotations = 4
    for (int i = 0; i < 10; ++i) rec.annotate(i * 100, "ep");
    EXPECT_EQ(rec.annotations().size(), 4u);
    EXPECT_EQ(rec.dropped_annotations(), 6u);
}

TEST(Recorder, DisabledRecorderIsInertButEmitsValidJson) {
    ObsOn guard;
    Recorder::Config cfg = small_cfg();
    cfg.enabled = false;
    Recorder rec{cfg};
    EXPECT_FALSE(rec.on());
    rec.add_probe("g", TimeSeries::Kind::gauge, [] { return 1.0; });
    EXPECT_EQ(rec.series("x", TimeSeries::Kind::gauge), nullptr);
    rec.sample(0);
    rec.annotate(0, "ep");
    EXPECT_EQ(rec.samples(), 0u);
    EXPECT_TRUE(rec.annotations().empty());

    const JsonParse parsed = json_parse(rec.json(), "<off>");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue* enabled = parsed.value.find("enabled");
    ASSERT_NE(enabled, nullptr);
    EXPECT_FALSE(enabled->bool_value);
    const JsonValue* series = parsed.value.find("series");
    ASSERT_NE(series, nullptr);
    EXPECT_TRUE(series->is_object());
    EXPECT_TRUE(series->members.empty());
}

TEST(Recorder, KillSwitchOffWinsOverEnabledConfig) {
    set_enabled(false);
    Recorder rec;  // default config has enabled = true
    set_enabled(true);
    EXPECT_FALSE(rec.on());
    rec.sample(0);
    EXPECT_EQ(rec.samples(), 0u);
}

TEST(Recorder, JsonIsByteIdenticalAcrossIdenticalRuns) {
    ObsOn guard;
    auto run = [] {
        Recorder rec{small_cfg()};
        double level = 0.0;
        rec.add_probe("g", TimeSeries::Kind::gauge, [&level] { return level; });
        for (int i = 0; i < 50; ++i) {
            level = 0.25 * i;
            rec.sample(i * 100);
        }
        rec.annotate(1234, "episode.start");
        return rec.json("deadbeef");
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_EQ(a, b);
    const JsonParse parsed = json_parse(a, "<series>");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const JsonValue* hash = parsed.value.find("config_hash");
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->string_value, "deadbeef");
}

TEST(Recorder, ExportToTraceEmitsSimCounterEvents) {
    ObsOn guard;
    Trace::clear();
    Trace::start();
    Recorder rec{small_cfg()};
    double level = 0.0;
    rec.add_probe("sim.queue.delay_s", TimeSeries::Kind::gauge,
                  [&level] { return level; });
    for (int i = 0; i < 3; ++i) {
        level = 1.0 + i;
        rec.sample(i * 100);
    }
    rec.annotate(250, "episode.start");
    rec.export_to_trace();

    EXPECT_EQ(Trace::buffered_sim_events(), 4u);  // 3 counter points + 1 instant

    const std::string path = testing::TempDir() + "recorder_trace.json";
    ASSERT_TRUE(Trace::write(path));
    const JsonParse parsed = json_parse_file(path);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    // The sim track rides pid 2 with 'C' (counter) and 'i' (instant) phases.
    const JsonValue* events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t counters = 0;
    std::size_t instants = 0;
    for (const auto& e : events->items) {
        const JsonValue* ph = e.find("ph");
        const JsonValue* pid = e.find("pid");
        if (ph == nullptr || pid == nullptr || pid->int_value != 2) continue;
        if (ph->string_value == "C") ++counters;
        if (ph->string_value == "i") ++instants;
    }
    EXPECT_EQ(counters, 3u);
    EXPECT_EQ(instants, 1u);
    Trace::stop();
    Trace::clear();
}

// Span collection may already be running (BB_OBS_TRACE=1 starts it
// ambiently); stop it for one test and restart it afterwards if it ran.
class TraceOff {
public:
    TraceOff() : was_active_{Trace::active()} { Trace::stop(); }
    ~TraceOff() {
        if (was_active_) Trace::start();
    }

private:
    bool was_active_;
};

TEST(Recorder, ExportToTraceIsNoOpWithoutActiveTrace) {
    ObsOn guard;
    const TraceOff no_trace;
    Trace::clear();
    Recorder rec{small_cfg()};
    double level = 1.0;
    rec.add_probe("g", TimeSeries::Kind::gauge, [&level] { return level; });
    rec.sample(0);
    rec.export_to_trace();
    EXPECT_EQ(Trace::buffered_sim_events(), 0u);
}

}  // namespace
}  // namespace bb::obs
