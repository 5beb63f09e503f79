// casp_verify: schedule-exploration driver for the vmpi runtime.
//
// Sweeps the SPMD corpus (tools/sched_corpus.*) across deterministic
// schedules — seeded-random plus optional CHESS-style bounded-systematic —
// and, optionally, fault seeds. Known-bug programs must be flagged with
// their expected diagnosis and every flag carries a schedule string that
// `--replay` reproduces exactly; good programs must stay clean on every
// schedule (a flag there is an analyzer false positive and fails the run).
//
//   casp_verify                          verify the whole corpus
//   casp_verify crossed_tags             verify one program
//   casp_verify --list                   list corpus programs
//   casp_verify --replay=<string> NAME   re-run one schedule, print report
//
// This is check.sh stage (h)'s workhorse; exit 0 means every expectation
// held within the schedule budget.

#ifndef CASP_VMPI_SCHED
#include <cstdio>
int main() {
  std::fprintf(stderr,
               "casp_verify: built without CASP_VMPI_SCHED; reconfigure "
               "with -DCASP_VMPI_SCHED=ON\n");
  return 2;
}
#else

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "sched_corpus.hpp"
#include "vmpi/sched_explore.hpp"

namespace {

using casp::vmpi::ExploreOptions;
using casp::vmpi::ExploreResult;
using casp::vmpi::FaultPlan;
using casp::vmpi::SchedPlan;
using casp::vmpi::ScheduleOutcome;

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: casp_verify [options] [program ...]\n"
      "\n"
      "Explores vmpi schedules over the SPMD corpus. With no programs, the\n"
      "whole corpus runs: known-bug programs must be flagged with their\n"
      "expected diagnosis, good programs must stay clean on every schedule.\n"
      "\n"
      "options:\n"
      "  --list                 list corpus programs and exit\n"
      "  --schedules=N          seeded-random schedules per program "
      "(default 32)\n"
      "  --seed=N               first random seed (default 1)\n"
      "  --systematic           add bounded-systematic DFS on top\n"
      "  --preemption-bound=N   systematic preemption bound (default 2)\n"
      "  --max-schedules=N      total schedule budget per program "
      "(default 64)\n"
      "  --faults=SPEC          FaultPlan spec (CASP_VMPI_FAULTS grammar)\n"
      "  --fault-seeds=A,B,..   rerun every schedule per fault seed\n"
      "  --replay=STRING        replay one schedule (needs exactly one\n"
      "                         program); STRING is a schedule string,\n"
      "                         \"seed=N\", or \"replay=<string>\"\n"
      "  -v, --verbose          print every flagged outcome, not just the\n"
      "                         first\n");
}

bool parse_int_opt(const char* arg, const char* name, long* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  char* end = nullptr;
  const long v = std::strtol(arg + n + 1, &end, 10);
  if (end == arg + n + 1 || *end != '\0') {
    std::fprintf(stderr, "casp_verify: bad value in \"%s\"\n", arg);
    std::exit(2);
  }
  *out = v;
  return true;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& spec) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void print_outcome(const ScheduleOutcome& o, const char* indent) {
  std::printf("%sschedule: %s\n", indent, o.schedule.c_str());
  if (o.fault_seed != 0)
    std::printf("%sfault seed: %llu\n", indent,
                static_cast<unsigned long long>(o.fault_seed));
  if (!o.failure_kind.empty())
    std::printf("%sfailure [%s]: %s\n", indent, o.failure_kind.c_str(),
                o.failure_what.c_str());
  for (const casp::vmpi::SchedFinding& f : o.findings)
    std::printf("%sfinding [%s] rank %d: %s\n", indent, f.kind.c_str(),
                f.rank, f.detail.c_str());
  std::printf("%sreplay: CASP_VMPI_SCHED=\"replay=%s\"\n", indent,
              o.schedule.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool verbose = false;
  bool systematic = false;
  long schedules = 32;
  long seed = 1;
  long preemption_bound = 2;
  long max_schedules = 64;
  std::optional<FaultPlan> faults;
  std::vector<std::uint64_t> fault_seeds;
  std::string replay;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(stdout);
      return 0;
    } else if (std::strcmp(a, "--list") == 0) {
      list = true;
    } else if (std::strcmp(a, "--systematic") == 0) {
      systematic = true;
    } else if (std::strcmp(a, "-v") == 0 || std::strcmp(a, "--verbose") == 0) {
      verbose = true;
    } else if (parse_int_opt(a, "--schedules", &schedules) ||
               parse_int_opt(a, "--seed", &seed) ||
               parse_int_opt(a, "--preemption-bound", &preemption_bound) ||
               parse_int_opt(a, "--max-schedules", &max_schedules)) {
      // parsed in the condition
    } else if (std::strncmp(a, "--faults=", 9) == 0) {
      faults = FaultPlan::parse(a + 9);
    } else if (std::strncmp(a, "--fault-seeds=", 14) == 0) {
      fault_seeds = parse_seed_list(a + 14);
    } else if (std::strncmp(a, "--replay=", 9) == 0) {
      replay = a + 9;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "casp_verify: unknown option \"%s\"\n", a);
      usage(stderr);
      return 2;
    } else {
      names.push_back(a);
    }
  }

  try {
    if (list) {
      for (const auto& p : casp::vmpi::corpus::programs())
        std::printf("%-22s p=%d  %s%s\n", p.name.c_str(), p.size,
                    p.buggy ? "buggy: expects " : "good",
                    p.expected.c_str());
      return 0;
    }

    if (!replay.empty()) {
      if (names.size() != 1) {
        std::fprintf(stderr,
                     "casp_verify: --replay needs exactly one program name\n");
        return 2;
      }
      const casp::vmpi::corpus::Program p =
          casp::vmpi::corpus::find(names[0]);
      const SchedPlan plan = SchedPlan::parse(replay);
      const ScheduleOutcome o = casp::vmpi::run_schedule(
          p.size, p.body, plan, faults, 0, p.deadline_ms);
      std::printf("%s under %s:\n", p.name.c_str(), plan.describe().c_str());
      print_outcome(o, "  ");
      return o.flagged() ? 1 : 0;
    }

    std::vector<casp::vmpi::corpus::Program> selected;
    if (names.empty()) {
      selected = casp::vmpi::corpus::programs();
    } else {
      for (const std::string& n : names)
        selected.push_back(casp::vmpi::corpus::find(n));
    }

    int failures = 0;
    for (const auto& p : selected) {
      ExploreOptions opt;
      opt.size = p.size;
      opt.random_schedules = static_cast<int>(schedules);
      opt.base_seed = static_cast<std::uint64_t>(seed);
      opt.systematic = systematic;
      opt.preemption_bound = static_cast<int>(preemption_bound);
      opt.max_schedules = static_cast<int>(max_schedules);
      opt.faults = faults;
      opt.fault_seeds = fault_seeds;
      opt.deadline_ms = p.deadline_ms;  // virtual-clock budget, if any
      const ExploreResult r = casp::vmpi::explore(p.body, opt);

      if (p.buggy) {
        const ScheduleOutcome* hit = r.first_with(p.expected);
        if (hit != nullptr) {
          std::printf("PASS %-22s flagged \"%s\" (%d schedules, %zu "
                      "flagged)\n",
                      p.name.c_str(), p.expected.c_str(), r.schedules_run,
                      r.flagged.size());
          print_outcome(*hit, "       ");
        } else {
          ++failures;
          std::printf("FAIL %-22s expected \"%s\" but %d schedules found "
                      "%zu other flag(s)\n",
                      p.name.c_str(), p.expected.c_str(), r.schedules_run,
                      r.flagged.size());
          for (const ScheduleOutcome& o : r.flagged) {
            print_outcome(o, "       ");
            if (!verbose) break;
          }
        }
      } else {
        if (r.clean()) {
          std::printf("PASS %-22s clean across %d schedules\n",
                      p.name.c_str(), r.schedules_run);
        } else {
          ++failures;
          std::printf("FAIL %-22s flagged %zu time(s) in %d schedules "
                      "(false positive)\n",
                      p.name.c_str(), r.flagged.size(), r.schedules_run);
          for (const ScheduleOutcome& o : r.flagged) {
            print_outcome(o, "       ");
            if (!verbose) break;
          }
        }
      }
    }
    if (failures != 0) {
      std::printf("casp_verify: %d corpus expectation(s) failed\n", failures);
      return 1;
    }
    std::printf("casp_verify: all %zu corpus expectations held\n",
                selected.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casp_verify: %s\n", e.what());
    return 2;
  }
}

#endif  // CASP_VMPI_SCHED
