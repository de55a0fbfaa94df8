// Repository benchmark binary:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>]
//
// Workloads: sim-qa-day, rt-qa-day, rt-ceiling, rt-sharded. Prints a
// `host: {...}` line, then the result as one JSON line (last on stdout).
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics and the tracing overhead. perfbench/run.py
// builds this binary and forwards its output.

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "perfbench.h"

namespace {

using schemble::perfbench::Args;

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{sim-qa-day|rt-qa-day|rt-ceiling|rt-sharded} --seed N "
               "--seconds S --trace {0|1} [--scale F]\n",
               error);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--seed") {
      if (value[0] < '0' || value[0] > '9') Usage("--seed takes N >= 0");
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes N >= 0");
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0') Usage("flag values must be numbers");
    if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0.0;
    } else if (flag == "--scale") {
      args.scale = number;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 0.0 || args.scale <= 0.0) Usage("bad --seconds/--scale");
  return args;
}

void PrintHost() {
  utsname uts{};
  uname(&uts);
  std::printf("host: {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"kernel\": \"%s %s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, uts.sysname, uts.release);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace schemble::perfbench;
  const std::map<std::string, std::function<void(const Args&, Report*)>>
      workloads = {
          {"sim-qa-day", RunSimQaDay},
          {"rt-qa-day", RunRtQaDay},
          {"rt-ceiling",
           [](const Args& a, Report* r) { RunCeiling(a, 1, r); }},
          {"rt-sharded",
           [](const Args& a, Report* r) { RunCeiling(a, 4, r); }},
      };
  const Args args = Parse(argc, argv);
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  PrintHost();
  Report report;
  workload->second(args, &report);
  report.Print();
  return 0;
}
