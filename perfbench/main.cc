// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work <dir> --sublet <path>
//
// Runs one workload (or, with --trace 1, the traced layer sweep), prints
// the report and then, as the last line, the result JSON.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload <batch-infer|serve-point|"
               "serve-batch|serve-epochs> --seed <n> --seconds <s> "
               "--trace <0|1> --work <dir> --sublet <path>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::stoull(value);
    else if (flag == "--seconds") cfg.seconds = std::stod(value);
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--work") cfg.work = value;
    else if (flag == "--sublet") cfg.sublet = value;
    else return usage();
  }
  if (cfg.work.empty() || cfg.sublet.empty() || cfg.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(cfg.work);

  pb::Result result;
  try {
    if (cfg.trace) {
      result = pb::run_traced(cfg);
    } else if (cfg.workload == "batch-infer") {
      result = pb::run_batch_infer(cfg);
    } else if (cfg.workload == "serve-point") {
      result = pb::run_serve_point(cfg);
    } else if (cfg.workload == "serve-batch") {
      result = pb::run_serve_batch(cfg);
    } else if (cfg.workload == "serve-epochs") {
      result = pb::run_serve_epochs(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& line : result.report) std::cout << line << "\n";
  if (result.attempted == 0) result.fail("nothing was attempted");
  const double failed_ratio =
      result.attempted ? static_cast<double>(result.failed) / result.attempted
                       : 1.0;
  std::cout << "  failed_ratio = " << pb::fmt(failed_ratio, 6) << " ("
            << result.failed << " of " << result.attempted << ")\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const pb::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    std::cout << (i ? ", " : "") << "\"" << json_escape(m.name)
              << "\": {\"value\": " << value << ", \"unit\": \""
              << json_escape(m.unit) << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
