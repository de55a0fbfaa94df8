#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "models/task_factory.h"
#include "workload/traffic.h"

namespace schemble {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

QueryTrace MakeTrace(const SyntheticTask& task, uint64_t seed) {
  PoissonTraffic traffic(30.0);
  PerSourceUniformDeadline deadlines(8, 80 * kMillisecond,
                                     200 * kMillisecond, 5);
  TraceOptions options;
  options.seed = seed;
  options.num_sources = 8;
  return BuildTrace(task, traffic, deadlines, 10 * kSecond, options);
}

TEST(TraceIoTest, RoundTripsExactly) {
  SyntheticTask task = MakeTextMatchingTask(3);
  const QueryTrace original = MakeTrace(task, 11);
  const std::string path = TempPath("trace_roundtrip.csv");
  ASSERT_TRUE(SaveTraceCsv(original, path).ok());
  auto loaded = LoadTraceCsv(task, path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), original.size());
  for (int64_t i = 0; i < original.size(); ++i) {
    const TracedQuery& a = original.items[i];
    const TracedQuery& b = loaded.value().items[i];
    EXPECT_EQ(a.query.id, b.query.id);
    EXPECT_EQ(a.arrival_time, b.arrival_time);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.source, b.source);
    EXPECT_DOUBLE_EQ(a.query.difficulty, b.query.difficulty);
    // Payload regenerates bit-for-bit from (id, difficulty).
    for (int k = 0; k < task.num_models(); ++k) {
      for (size_t d = 0; d < a.query.model_output(k).size(); ++d) {
        EXPECT_DOUBLE_EQ(a.query.model_output(k)[d],
                         b.query.model_output(k)[d]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, LoadMissingFileFails) {
  SyntheticTask task = MakeTextMatchingTask(3);
  EXPECT_FALSE(LoadTraceCsv(task, TempPath("does_not_exist.csv")).ok());
}

TEST(TraceIoTest, LoadMalformedRowFails) {
  SyntheticTask task = MakeTextMatchingTask(3);
  const std::string path = TempPath("trace_malformed.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "id,difficulty,arrival_us,deadline_us,source\n");
  std::fprintf(f, "1,0.5,100\n");  // too few fields
  std::fclose(f);
  auto loaded = LoadTraceCsv(task, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  SyntheticTask task = MakeTextMatchingTask(3);
  const std::string path = TempPath("trace_empty.csv");
  ASSERT_TRUE(SaveTraceCsv(QueryTrace{}, path).ok());
  auto loaded = LoadTraceCsv(task, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
  std::remove(path.c_str());
}

TEST(TraceIoTest, SaveToUnwritablePathFails) {
  const QueryTrace trace;
  EXPECT_FALSE(SaveTraceCsv(trace, "/nonexistent-dir/trace.csv").ok());
}

}  // namespace
}  // namespace schemble
