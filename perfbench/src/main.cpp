// perfbench: the end-to-end benchmark of pacds. Each invocation runs one
// workload in its own process and prints a report, then one JSON line:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. See README.md beside this directory's CMakeLists.txt.

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/simd.hpp"
#include "io/parse_num.hpp"

namespace {

using namespace perfbench;

constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;
constexpr int kExitError = 4;

struct Workload {
  const char* name;
  void (*run)(Run&);
};

constexpr Workload kWorkloads[] = {
    {"paper_sweep", run_paper_sweep},
    {"scale_trial", run_scale_trial},
    {"serve_session", run_serve_session},
    {"extension_loops", run_extension_loops},
};

std::int64_t integer(const std::string& text, const std::string& flag,
                     std::int64_t lo, std::int64_t hi) {
  const auto value = pacds::parse_int64_in(text, lo, hi);
  if (!value) throw std::invalid_argument(flag + ": bad value " + text);
  return *value;
}

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <paper_sweep|scale_trial|"
               "serve_session|extension_loops> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--corrupt <check>] [--spans <path>] "
               "[--revision <rev>] [--lanes <n>]\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = static_cast<std::uint64_t>(
            integer(value(), arg, 0, std::int64_t{1} << 53));
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = static_cast<int>(integer(value(), arg, 1, 3600));
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
        options.trace = trace == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--corrupt") {
        options.corrupt = value();
      } else if (arg == "--spans") {
        options.spans_path = value();
      } else if (arg == "--revision") {
        options.revision = value();
      } else if (arg == "--lanes") {
        options.lanes = static_cast<int>(integer(value(), arg, 1, 4096));
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_seed || !have_trace) {
    return usage("--seed and --trace are required");
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload " + options.workload);

  Run run(options);
  run.stamp("workload", options.workload);
  run.stamp("nproc", std::to_string(host_cpus()));
  run.stamp("simd", pacds::simd::to_string(pacds::simd::active_level()));
  run.stamp("build_type", PERFBENCH_BUILD_TYPE);
  run.stamp("compiler", PERFBENCH_COMPILER);
  run.stamp("revision", options.revision);
  try {
    workload->run(run);
  } catch (const ThreadGuardError& e) {
    std::cout << "perfbench: refused: " << e.message << "\n";
    return kExitRefused;
  } catch (const InvalidRun& e) {
    std::cout << "perfbench: invalid run: " << e.message << "\n";
    return kExitRefused;
  } catch (const std::exception& e) {
    std::cout << "perfbench: error: " << e.what() << "\n";
    return kExitError;
  }
  return run.finish() == 0 ? 0 : kExitCheckFailed;
}
